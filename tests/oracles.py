"""Independent reference implementations used to validate the library.

Everything here is written as naively as possible: explicit loops over
vertices, triples and whole graph spaces, exact Fraction arithmetic. None of
it shares code paths with the package.
"""

import csv
import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import scipy.stats

from graphtest import Graph, GraphSample, canonical_pairs, num_pairs


def random_graph(rng: np.random.Generator, v: int) -> Graph:
    return Graph(v, int(rng.integers(0, 1 << num_pairs(v))))


def random_sample(rng: np.random.Generator, v: int, n: int) -> GraphSample:
    return GraphSample(random_graph(rng, v) for _ in range(n))


def random_marginals(rng: np.random.Generator, v: int, den: int = 12) -> list[Fraction]:
    return [
        Fraction(int(rng.integers(0, den + 1)), den)
        for _ in range(num_pairs(v))
    ]


def naive_hamming(g: Graph, h: Graph) -> int:
    count = 0
    for i in range(g.v):
        for j in range(i + 1, g.v):
            if g.has_edge(i, j) != h.has_edge(i, j):
                count += 1
    return count


def naive_edge_count(g: Graph) -> int:
    return sum(
        1 for i, j in combinations(range(g.v), 2) if g.has_edge(i, j)
    )


def naive_triangle_count(g: Graph) -> int:
    return sum(
        1
        for i, j, k in combinations(range(g.v), 3)
        if g.has_edge(i, j) and g.has_edge(j, k) and g.has_edge(i, k)
    )


def naive_two_star_count(g: Graph) -> int:
    total = 0
    for center in range(g.v):
        neighbors = [x for x in range(g.v) if x != center and g.has_edge(center, x)]
        total += len(neighbors) * (len(neighbors) - 1) // 2
    return total


def enumerated_pair_marginals(dist) -> np.ndarray:
    """Every pair's edge marginal under an exact distribution over all 2^E
    edge bitsets: the probabilities summed against bit a of every code."""
    E = num_pairs(dist.v)
    codes = np.arange(1 << E)
    bits = (codes[:, None] >> np.arange(E)) & 1
    return dist.probabilities @ bits


def exact_mean_distance(sample: GraphSample, g: Graph) -> Fraction:
    return Fraction(sum(naive_hamming(g, member) for member in sample), sample.n)


def exact_expected_distance(marginals, g: Graph) -> Fraction:
    """Expected disagreement count against independent edge indicators."""
    probs = getattr(marginals, "fractions", marginals)
    total = Fraction(0)
    for a, (i, j) in enumerate(canonical_pairs(g.v)):
        p = probs[a]
        x = 1 if g.has_edge(i, j) else 0
        total += x + p - 2 * x * p
    return total


def literal_one_sample_max(sample: GraphSample, marginals) -> Fraction:
    """Max over all graphs of |mean distance - expected distance|, by brute loop."""
    E = num_pairs(sample.v)
    best = Fraction(0)
    for bits in range(1 << E):
        g = Graph(sample.v, bits)
        gap = exact_mean_distance(sample, g) - exact_expected_distance(marginals, g)
        if abs(gap) > best:
            best = abs(gap)
    return best


def literal_two_sample_max(s: GraphSample, t: GraphSample) -> Fraction:
    best = Fraction(0)
    for bits in range(1 << num_pairs(s.v)):
        g = Graph(s.v, bits)
        gap = exact_mean_distance(s, g) - exact_mean_distance(t, g)
        if abs(gap) > best:
            best = abs(gap)
    return best


def _member_counts(sample: GraphSample) -> list[int]:
    return [
        sum(1 for g in sample if g.has_edge(i, j))
        for i, j in canonical_pairs(sample.v)
    ]


def _gray_flip(t: int) -> int:
    """Slot flipped between the Gray codes of t and t+1."""
    s = t + 1
    return (s & -s).bit_length() - 1


def gray_one_sample_max(sample: GraphSample, marginals) -> tuple[Fraction, int]:
    """Largest |mean distance - expected distance| and the first bitset
    attaining it, visiting bitsets in Gray-code order with a running sum of
    member distances and a running expected distance."""
    probs = getattr(marginals, "fractions", marginals)
    n = sample.n
    counts = _member_counts(sample)
    sum_d = sum(counts)
    pi_term = sum(probs)
    best = abs(Fraction(sum_d, n) - pi_term)
    best_code = 0
    code = 0
    for t in range((1 << len(counts)) - 1):
        a = _gray_flip(t)
        code ^= 1 << a
        if code >> a & 1:
            sum_d += n - 2 * counts[a]
            pi_term += 1 - 2 * probs[a]
        else:
            sum_d += 2 * counts[a] - n
            pi_term -= 1 - 2 * probs[a]
        w = abs(Fraction(sum_d, n) - pi_term)
        if w > best:
            best = w
            best_code = code
    return best, best_code


def gray_two_sample_max(s: GraphSample, t: GraphSample) -> tuple[Fraction, int]:
    """Largest |mean distance to s - mean distance to t| and the first bitset
    attaining it, visiting bitsets in Gray-code order with running sums of
    member distances to each sample."""
    n, m = s.n, t.n
    cs, ct = _member_counts(s), _member_counts(t)
    sum_s, sum_t = sum(cs), sum(ct)
    best = abs(Fraction(sum_s, n) - Fraction(sum_t, m))
    best_code = 0
    code = 0
    for step in range((1 << len(cs)) - 1):
        a = _gray_flip(step)
        code ^= 1 << a
        if code >> a & 1:
            sum_s += n - 2 * cs[a]
            sum_t += m - 2 * ct[a]
        else:
            sum_s += 2 * cs[a] - n
            sum_t += 2 * ct[a] - m
        w = abs(Fraction(sum_s, n) - Fraction(sum_t, m))
        if w > best:
            best = w
            best_code = code
    return best, best_code


def fraction_one_sample(counts, n: int, probs) -> Fraction:
    """Closed-form one-sample statistic sum |c/n - p| from per-pair counts."""
    return sum(
        (abs(Fraction(int(c), n) - p) for c, p in zip(counts, probs)), Fraction(0)
    )


def fraction_two_sample(a, n: int, b, m: int) -> Fraction:
    """Closed-form two-sample statistic sum |a/n - b/m| from per-pair counts."""
    return sum(
        (abs(Fraction(int(x), n) - Fraction(int(y), m)) for x, y in zip(a, b)),
        Fraction(0),
    )


def all_at_once_permutation_p(
    s: GraphSample,
    t: GraphSample,
    keys: np.ndarray,
    *,
    strict: bool = False,
    smoothing: bool = False,
) -> float:
    """Permutation p-value of the R rows of one (R x N) array of 64-bit keys.

    The pooled graphs are sorted by edge bitset. Each row is sorted in full,
    on its keys with the low (N-1).bit_length() bits dropped, by a stable
    argsort, so equal keys keep that canonical order; the first min(n, m)
    graphs form the smaller pseudo-sample, and its per-pair counts come from
    an int64 (R x N) mask product.
    """
    n, m = s.n, t.n
    N, k = n + m, min(n, m)
    R = keys.shape[0]
    pairs = canonical_pairs(s.v)
    pooled = sorted(list(s) + list(t), key=lambda g: g.bits)
    indicators = np.array(
        [[int(g.has_edge(i, j)) for i, j in pairs] for g in pooled], dtype=np.int64
    )
    a = [sum(int(g.has_edge(i, j)) for g in s) for i, j in pairs]
    b = [sum(int(g.has_edge(i, j)) for g in t) for i, j in pairs]
    obs = int(fraction_two_sample(a, n, b, m) * (n * m))
    order = np.argsort(keys >> np.uint64((N - 1).bit_length()), axis=1, kind="stable")
    mask = np.zeros((R, N), dtype=np.int64)
    np.put_along_axis(mask, order[:, :k], 1, axis=1)
    small = mask @ indicators
    big = indicators.sum(axis=0)[None, :] - small
    nums = np.abs((N - k) * small - k * big).sum(axis=1)
    count = int((nums > obs).sum() if strict else (nums >= obs).sum())
    return float(Fraction(1 + count, 1 + R) if smoothing else Fraction(count, R))


def exact_permutation_p(
    s: GraphSample, t: GraphSample, strict: bool, cap: int = 13_000
) -> Fraction:
    """Exact permutation p-value: the share of all C(N, k) k-subsets of the
    pooled graphs, k = min(n, m), whose split scores at or above (strictly
    above, with ``strict``) the observed statistic.

    Each split is scored by its integer numerator sum |(N-k) a - k b| over
    the pairs, a and b the per-pair counts of the k graphs and of the rest;
    the observed one is sum |m a - n b| for the counts of s and t. Refuses
    more than ``cap`` subsets.
    """
    n, m = s.n, t.n
    N, k = n + m, min(n, m)
    if math.comb(N, k) > cap:
        raise ValueError(f"C({N}, {k}) = {math.comb(N, k)} subsets exceed the cap {cap}")
    pairs = canonical_pairs(s.v)
    pooled = np.array(
        [[int(g.has_edge(i, j)) for i, j in pairs] for g in list(s) + list(t)],
        dtype=np.int64,
    )
    total = pooled.sum(axis=0)
    obs = int(np.abs(m * pooled[:n].sum(axis=0) - n * pooled[n:].sum(axis=0)).sum())
    subsets = np.array(list(combinations(range(N), k)))
    small = pooled[subsets].sum(axis=1)
    nums = np.abs((N - k) * small - k * (total - small)).sum(axis=1)
    count = int((nums > obs).sum() if strict else (nums >= obs).sum())
    return Fraction(count, len(subsets))


def er_half_scaled_null(n: int, E: int) -> Counter:
    """Exact law of the sum of E i.i.d. |2X - n|, X ~ Bin(n, 1/2).

    That sum is the one-sample statistic of n graphs against ER(1/2), scaled
    by 2n. Returns integer weights over the total 2^(n*E).
    """
    term = Counter()
    for x in range(n + 1):
        term[abs(2 * x - n)] += math.comb(n, x)
    law = Counter({0: 1})
    for _ in range(E):
        out = Counter()
        for s, w in law.items():
            for t, u in term.items():
                out[s + t] += w * u
        law = out
    return law


def order_statistic_interval(
    law: Counter, alpha: float, R: int, eps: float = 1e-6
) -> tuple[int, int]:
    """Atoms bounding the ceil((1-alpha)R)-th smallest of R i.i.d. draws from law.

    The order statistic lies below ``lo`` or above ``hi`` with probability at
    most eps each: P(X_(k) <= s) = P(Bin(R, F(s)) >= k).
    """
    k = min(max(math.ceil((1 - Fraction(alpha)) * R), 1), R)
    total = sum(law.values())
    running = 0
    below = []
    for s in sorted(law):
        running += law[s]
        below.append((s, scipy.stats.binom.sf(k - 1, R, running / total)))
    lo = next(s for s, P in below if P > eps)
    hi = next(s for s, P in below if P >= 1 - eps)
    return lo, hi


def heat_bath_probability(theta, c: int) -> float:
    """sigma(theta1 + theta2 * c), the chance that a heat-bath update sets a
    pair with c common neighbours (triangles) or c other incident edges
    (two-stars)."""
    x = theta[0] + theta[1] * c
    return 1 / (1 + math.exp(-x)) if x >= 0 else math.exp(x) / (1 + math.exp(x))


def cftp_column(
    v: int,
    triangles: bool,
    theta,
    rounds,
    seq: np.random.SeedSequence,
    size: int,
    column: int,
    start: int = 8,
    cap: int = 4096,
) -> list[int] | None:
    """Column ``column`` of a group of ``size`` draws by coupling from the
    past, run alone: its edge indicators, or None if the chains do not meet
    from ``cap`` sweeps back.

    A sweep updates the pairs of ``rounds`` in order, one at a time. An
    upper chain starts from the complete graph and a lower one from the
    empty graph, T sweeps back. A pair is set when its uniform u is below
    ``heat_bath_probability`` at the c of the same chain for theta2 >= 0,
    and of the other chain for theta2 < 0. Epoch e of the past is the e-th
    child of ``seq``, runs start * 2**(e-1) sweeps (start sweeps for e = 0),
    and draws its uniforms in chunks of max(1, 2**16 // (k * size)) rounds
    of k pairs: one ``random((rounds * k, size))`` each, of which this
    column reads its own. T doubles from ``start`` until the chains meet.
    """
    pairs = list(combinations(range(v), 2))
    k = len(rounds[0])

    def c_of(nbrs, i, j):
        if triangles:
            return len(nbrs[i] & nbrs[j])
        return len(nbrs[i] - {j}) + len(nbrs[j] - {i})

    epochs = []
    T = start
    while T <= cap:
        # The next child of seq, made without advancing seq's own count.
        epochs.append(np.random.SeedSequence(
            seq.entropy, spawn_key=seq.spawn_key + (len(epochs),), pool_size=seq.pool_size
        ))
        # Each chain's graph as the neighbour set of every vertex.
        upper = [set(range(v)) - {x} for x in range(v)]
        lower = [set() for _ in range(v)]
        for e in reversed(range(len(epochs))):
            gen = np.random.default_rng(epochs[e])
            steps = (start << max(e - 1, 0)) * len(rounds)
            chunk = max(1, 65536 // (k * size))
            u = np.concatenate([
                gen.random((min(chunk, steps - lo) * k, size))[:, column]
                for lo in range(0, steps, chunk)
            ]).tolist()
            for t in range(steps):
                for (i, j), x in zip(rounds[t % len(rounds)], u[t * k:(t + 1) * k]):
                    cu, cl = c_of(upper, i, j), c_of(lower, i, j)
                    if theta[1] < 0:
                        cu, cl = cl, cu
                    for nbrs, c in ((upper, cu), (lower, cl)):
                        if x < heat_bath_probability(theta, c):
                            nbrs[i].add(j)
                            nbrs[j].add(i)
                        else:
                            nbrs[i].discard(j)
                            nbrs[j].discard(i)
        if upper == lower:
            return [int(j in lower[i]) for i, j in pairs]
        T *= 2
    return None


def enumerated_ergm_law(v: int, triangles: bool, theta) -> np.ndarray:
    """Probabilities of all 2^E edge bitsets under the ERGM, bit a of a code
    being pair a of ``combinations(range(v), 2)``: weights
    exp(theta1 * edges + theta2 * (triangles or two-stars)), normalised."""
    pairs = list(combinations(range(v), 2))
    index = {pair: a for a, pair in enumerate(pairs)}
    codes = np.arange(1 << len(pairs), dtype=np.int64)

    def edge(a):
        return (codes >> a) & 1

    n_e = sum(edge(a) for a in range(len(pairs)))
    if triangles:
        n_x = sum(edge(index[i, j]) & edge(index[j, k]) & edge(index[i, k])
                  for i, j, k in combinations(range(v), 3))
    else:
        degrees = [sum(edge(index[min(x, y), max(x, y)]) for y in range(v) if y != x)
                   for x in range(v)]
        n_x = sum(d * (d - 1) // 2 for d in degrees)
    log_w = theta[0] * n_e + theta[1] * n_x
    w = np.exp(log_w - log_w.max())
    return w / w.sum()


def choice_edge_counts(
    probabilities: np.ndarray, v: int, n: int, R: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-pair edge counts of R samples of n graphs, drawn by one
    ``rng.choice`` over the edge-bitset codes: bit a of a code is canonical
    pair a, and row r sums the bits of the r-th row of codes."""
    codes = rng.choice(len(probabilities), size=(R, n), p=probabilities)
    bits = (codes[:, :, None] >> np.arange(num_pairs(v))) & 1
    return bits.sum(axis=1)


def binomial_cdf(n: int, p: float) -> list[float]:
    """P(X <= k) for k = 0..n-1, X ~ Bin(n, p) with the float p read exactly,
    each rounded once to a float.

    With p = a/d as a Fraction and b = d - a, P(X <= k) is the integer sum of
    the terms math.comb(n, j) a^j b^(n-j), j <= k, over d^n. Term j + 1 is
    term j times (n - j) a / ((j + 1) b), an exact integer division; for
    b = 0 every term below j = n is 0.
    """
    a, d = Fraction(p).as_integer_ratio()
    b = d - a
    total, running, term, cdf = d**n, 0, b**n, []
    for j in range(n):
        running += term
        cdf.append(running / total)
        term = term * (n - j) * a // ((j + 1) * b or 1)
    return cdf


def bonferroni_reject_row(n: int, p0: Fraction, alpha, E: int) -> list[bool]:
    """Per-count Bonferroni decisions for one pair, from the binomial pmf.

    Count k rejects when the summed probability of every outcome no more
    likely than k is at most alpha/E.
    """
    pmf = [math.comb(n, x) * p0**x * (1 - p0) ** (n - x) for x in range(n + 1)]
    threshold = Fraction(alpha) / E
    return [
        sum((q for q in pmf if q <= pmf[k]), Fraction(0)) <= threshold
        for k in range(n + 1)
    ]


def rank_with_ties(values) -> list[Fraction]:
    """Average ranks, 1-based, computed by sorting and grouping."""
    order = sorted(range(len(values)), key=lambda k: values[k])
    ranks: list[Fraction] = [Fraction(0)] * len(values)
    pos = 0
    while pos < len(order):
        end = pos
        while end + 1 < len(order) and values[order[end + 1]] == values[order[pos]]:
            end += 1
        avg = Fraction(pos + 1 + end + 1, 2)
        for k in range(pos, end + 1):
            ranks[order[k]] = avg
        pos = end + 1
    return ranks


def pearson_fraction(x, y) -> float:
    n = len(x)
    mx = sum(x, Fraction(0)) / n
    my = sum(y, Fraction(0)) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    return float(cov) / (float(vx) ** 0.5 * float(vy) ** 0.5)


def spearman_oracle(x, y) -> float:
    return pearson_fraction(rank_with_ties(x), rank_with_ties(y))


def quartile_oracle(values, p: float) -> float:
    """Linear interpolation of sorted values at position 1 + (len-1)*p."""
    data = sorted(float(v) for v in values)
    pos = (len(data) - 1) * p
    lo = int(np.floor(pos))
    hi = int(np.ceil(pos))
    frac = pos - lo
    return data[lo] * (1 - frac) + data[hi] * frac


def window_bounds_oracle(n_samples: int, rate: float, width_ms: float, step_ms: float):
    """Window k is [round(k*step), round(k*step + width)), rounding half up in Fractions."""
    width = Fraction(width_ms) * Fraction(rate) / 1000
    step = Fraction(step_ms) * Fraction(rate) / 1000
    count = math.floor((n_samples - width) / step) + 1
    half = Fraction(1, 2)
    return [
        (math.floor(step * k + half), math.floor(step * k + width + half))
        for k in range(count)
    ]


def window_correlation_oracle(values, rate: float, width_ms: float, step_ms: float):
    """Per-window rankdata + corrcoef loop: (values, undefined, windows).

    Pairs with a channel constant inside the window are 0 and listed in
    ``undefined`` as (window, pair).
    """
    values = np.asarray(values, dtype=np.float64)
    windows = window_bounds_oracle(len(values), rate, width_ms, step_ms)
    pairs = canonical_pairs(values.shape[1])
    out = np.zeros((len(windows), len(pairs)))
    undefined = []
    for t, (a, b) in enumerate(windows):
        block = values[a:b]
        constant = np.all(block == block[0], axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = np.corrcoef(scipy.stats.rankdata(block, axis=0), rowvar=False)
        for p, (i, j) in enumerate(pairs):
            if constant[i] or constant[j]:
                undefined.append((t, p))
            else:
                out[t, p] = min(1.0, max(-1.0, float(corr[i, j])))
    return out, undefined, windows


def format_graph_sample_oracle(sample: GraphSample, base: int = 0) -> str:
    """Graph-sample text written graph by graph, one line per member edge."""
    lines = [f"graphsample v={sample.v} n={sample.n} base={base}"]
    for g_idx, g in enumerate(sample):
        for i, j in g.edges():
            lines.append(f"{g_idx} {i + base} {j + base}")
    return "\n".join(lines) + "\n"


def read_graph_sample_oracle(path):
    """Line-by-line graph-sample reader: a GraphSample, or (message, line)
    for the first fault, line None when no line is to blame."""
    with open(path, encoding="utf-8") as fh:
        lines = [
            (lineno, raw.strip())
            for lineno, raw in enumerate(fh, start=1)
            if raw.strip() and not raw.strip().startswith("#")
        ]
    if not lines:
        return "file has no content lines", None
    lineno, header = lines[0]
    tokens = header.split()
    if not tokens or tokens[0] != "graphsample":
        return "header must start with 'graphsample'", lineno
    fields = {}
    for tok in tokens[1:]:
        key, eq, value = tok.partition("=")
        if not eq or key in fields:
            return f"malformed header token {tok!r}", lineno
        fields[key] = value
    if set(fields) != {"v", "n", "base"}:
        return f"header must define v, n and base, got {sorted(fields)}", lineno
    try:
        v, n, base = int(fields["v"]), int(fields["n"]), int(fields["base"])
    except ValueError:
        return "header fields must be integers", lineno
    if v < 2:
        return f"need v >= 2, got v={v}", lineno
    if n < 1:
        return f"sample must contain at least one graph, got n={n}", lineno
    if base not in (0, 1):
        return f"base must be 0 or 1, got {base}", lineno
    edge_sets = [set() for _ in range(n)]
    for lineno, text in lines[1:]:
        parts = text.split()
        if len(parts) != 3:
            return f"expected '<graph> <i> <j>', got {text!r}", lineno
        try:
            g, i, j = (int(p) for p in parts)
        except ValueError:
            return f"non-integer edge line {text!r}", lineno
        if not 0 <= g < n:
            return f"graph index {g} outside [0, {n})", lineno
        if i == j or not (base <= i < v + base and base <= j < v + base):
            return f"invalid vertex pair ({i}, {j}) for v={v}", lineno
        i, j = sorted((i, j))
        if (i, j) in edge_sets[g]:
            return f"duplicate edge ({i}, {j}) in graph {g}", lineno
        edge_sets[g].add((i, j))
    return GraphSample(
        Graph.from_edges(v, [(i - base, j - base) for i, j in edges])
        for edges in edge_sets
    )


def read_channel_csv_oracle(path):
    """Row-by-row channel CSV reader with ``csv.reader`` and ``float``: the
    labels (a tuple) and the (rows x channels) float64 values, or (message,
    line) for the first fault, line None when no row is to blame."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        lineno = 1  # a quoted cell may span lines: name the row's first line
        for row in reader:
            if row:
                rows.append((lineno, row))
            lineno = reader.line_num + 1
    if not rows:
        return "file is empty", None
    lineno, header = rows[0]
    labels = tuple(cell.strip() for cell in header)
    if not all(labels):
        return "empty channel label", lineno
    values = []
    for lineno, row in rows[1:]:
        if len(row) != len(labels):
            return f"expected {len(labels)} columns, got {len(row)}", lineno
        try:
            values.append([float(cell) for cell in row])
        except ValueError:
            return "non-numeric value in data row", lineno
        if not all(math.isfinite(x) for x in values[-1]):
            return "non-finite value in data row", lineno
    if not values:
        return "no data rows after the label row", None
    if len(labels) < 2:
        return "need at least 2 channels", None
    if len(set(labels)) < len(labels):
        return "channel labels must be unique", None
    return labels, np.array(values, dtype=np.float64)


# Hand-worked 3-channel recording: four 5-sample windows at 1000 Hz with
# width = step = 5 ms. Every block is a permutation of 1..5, so each window
# correlation is a rational multiple of 0.1 computable from rank differences.
FIXTURE_LABELS = ("c1", "c2", "c3")
FIXTURE_RATE = 1000.0
FIXTURE_BLOCKS = [
    ([1, 2, 3, 4, 5], [1, 3, 2, 5, 4], [5, 4, 3, 2, 1]),
    ([1, 2, 3, 4, 5], [2, 3, 1, 4, 5], [1, 2, 4, 3, 5]),
    ([1, 2, 3, 4, 5], [5, 4, 3, 2, 1], [1, 3, 2, 5, 4]),
    ([1, 2, 3, 4, 5], [1, 2, 3, 4, 5], [2, 1, 3, 5, 4]),
]
# Window correlations per canonical channel pair, then the induced quartiles
# and the edge windows under c = 0.5 with tie-inclusive comparisons.
FIXTURE_SERIES = {
    (0, 1): [0.8, 0.7, -1.0, 1.0],
    (0, 2): [-1.0, 0.9, 0.8, 0.8],
    (1, 2): [-0.8, 0.4, -0.8, 0.8],
}
FIXTURE_QUARTILES = {
    (0, 1): (0.275, 0.85),
    (0, 2): (0.35, 0.825),
    (1, 2): (-0.8, 0.5),
}
FIXTURE_EDGE_WINDOWS = {
    (0, 1): {2, 3},
    (0, 2): {0, 1},
    (1, 2): {0, 2, 3},
}


def fixture_values() -> np.ndarray:
    return np.vstack(
        [np.column_stack(block) for block in FIXTURE_BLOCKS]
    ).astype(np.float64)


def fixture_expected_lines(base: int = 0) -> list[str]:
    lines = [f"graphsample v=3 n=4 base={base}"]
    for window in range(4):
        for pair in ((0, 1), (0, 2), (1, 2)):
            if window in FIXTURE_EDGE_WINDOWS[pair]:
                lines.append(f"{window} {pair[0] + base} {pair[1] + base}")
    return lines
