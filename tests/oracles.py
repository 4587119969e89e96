"""Independent brute-force oracles: plain exhaustive enumeration, no search
tricks, kept deliberately separate from the library's algorithms.

The ref_* functions are the numpy routines that the library's bitset cores
(packing, the star search), its grouped sign-sum kernel (ref_sup_mean, the
full sign-matrix enumeration, and ref_exact_sup_mean, its exact mean), its
grouping of columns equal up to sign (ref_grouped_sup_mean, which groups
equal columns only) and its batched trial engine (ref_run_trial) replaced; ref_vc_dimension and
ref_growth_function are the per-subset Python-set counts that the blocked
restriction counts replaced, and ref_separator_patterns the Fraction
arithmetic that the integer cross products replaced.  The library must
reproduce their outputs exactly (witnesses, certified flags, profile order,
trial bits and, where the suprema span at most 53 - n bits, the exact
sign-enumeration mean) wherever they finish.  ref_blocks and
ref_orbit_minima find the interchangeable points and the multiset orbits
by trying every permutation.  is_affinely_separable decides
separability by an exact-rational simplex, independently of the library's
planar pair-line enumeration.  greedy_cover_size is the one-ball greedy
cover that the doubling dimension's batched greedy replaced; the library
must reproduce its size on every ball."""

from fractions import Fraction
from itertools import accumulate, combinations, combinations_with_replacement, permutations, product
import math
import operator

import numpy as np

_POP = {}


def _popcounts(k):
    if k not in _POP:
        _POP[k] = np.array([bin(m).count("1") for m in range(1 << k)], dtype=np.int32)
    return _POP[k]


def pairwise_dists(patterns, weights=None):
    a = np.asarray(patterns)
    if weights is None:
        weights = np.ones(a.shape[1])
    w = np.asarray(weights, dtype=float)
    return ((a[:, None, :] != a[None, :, :]) * w).sum(axis=2)


def brute_max_packing(dists, eps):
    """Maximum subset with pairwise distance > eps, over all 2^k subsets.

    Beyond 16 patterns the subset sweep is replaced by maximum clique in the
    complement graph via networkx Bron-Kerbosch: a different algorithm from
    a different codebase, still exact.
    """
    k = dists.shape[0]
    if k > 16:
        import networkx as nx
        g = nx.Graph()
        g.add_nodes_from(range(k))
        for i in range(k):
            for j in range(i + 1, k):
                if dists[i, j] > eps:
                    g.add_edge(i, j)
        return max(len(c) for c in nx.find_cliques(g))
    masks = np.arange(1 << k, dtype=np.int64)
    valid = np.ones(1 << k, dtype=bool)
    for i in range(k):
        for j in range(i + 1, k):
            if dists[i, j] <= eps:
                valid &= ((masks >> i) & 1 & (masks >> j)) == 0
    return int(_popcounts(k)[valid].max())


def project_multiset(cls, multiset):
    """Distinct restricted rows and the multiplicity weights of the support."""
    support, counts = np.unique(np.asarray(multiset), return_counts=True)
    sub = cls.patterns[:, support]
    seen = {}
    for row in sub:
        seen.setdefault(row.tobytes(), row)
    pats = np.array(list(seen.values()), dtype=np.int8)
    return pats, counts


def brute_global_packing(cls, gamma, n):
    best = 0
    for ms in combinations_with_replacement(range(cls.n_points), n):
        pats, w = project_multiset(cls, ms)
        d = pairwise_dists(pats, w)
        best = max(best, brute_max_packing(d, gamma))
    return best


def brute_local_packing(cls, gamma, n, h):
    """Triple max over multisets, centers, and radii eps in [gamma, n*h]."""
    hi = int(math.floor(n * h + 1e-12))
    if gamma > hi:
        return 1
    best = 1
    for ms in combinations_with_replacement(range(cls.n_points), n):
        pats, w = project_multiset(cls, ms)
        d = pairwise_dists(pats, w)
        total = w.sum()
        for f in range(pats.shape[0]):
            for eps in range(gamma, hi + 1):
                radius = min(math.floor(eps / h + 1e-12), total)
                sep = math.ceil(eps / 2 - 1e-12)
                ball = np.nonzero(d[f] <= radius)[0]
                sub = d[np.ix_(ball, ball)]
                best = max(best, brute_max_packing(sub, sep))
    return best


def ref_blocks(cls):
    """Blocks of interchangeable points: i and j share a block when swapping
    their columns leaves the sorted row set unchanged, tried for every pair.
    Each point's block is every point it swaps with, so the result is a
    partition only if that relation is an equivalence."""
    pats = cls.patterns
    rows = sorted(map(tuple, pats.tolist()))
    p = pats.shape[1]
    mates = [{i} for i in range(p)]
    for i, j in combinations(range(p), 2):
        swapped = pats.copy()
        swapped[:, [i, j]] = pats[:, [j, i]]
        if sorted(map(tuple, swapped.tolist())) == rows:
            mates[i].add(j)
            mates[j].add(i)
    return sorted({tuple(sorted(block)) for block in mates})


def ref_orbit_minima(blocks, n):
    """The n-point multisets (ascending tuples, lexicographic order) that are
    the smallest of their orbit under every permutation within blocks."""
    m = sum(len(b) for b in blocks)
    maps = []
    for perms in product(*(permutations(b) for b in blocks)):
        image = list(range(m))
        for block, perm in zip(blocks, perms):
            for a, b in zip(block, perm):
                image[a] = b
        maps.append(image)
    return [ms for ms in combinations_with_replacement(range(m), n)
            if all(ms <= tuple(sorted(image[i] for i in ms)) for image in maps)]


def brute_vc(cls):
    p = cls.n_points
    best = 0
    for k in range(1, p + 1):
        found = False
        for pts in combinations(range(p), k):
            realized = {tuple(row) for row in cls.patterns[:, list(pts)]}
            if len(realized) == 2 ** k:
                best, found = k, True
                break
        if not found:
            break
    return best


def brute_star(cls):
    p = cls.n_points
    best = 0
    for center in range(cls.n_rows):
        f0 = cls.patterns[center]
        for k in range(best + 1, p + 1):
            hit = False
            for pts in combinations(range(p), k):
                ok = True
                for x in pts:
                    has = False
                    for row in cls.patterns:
                        if row[x] != f0[x] and all(row[y] == f0[y] for y in pts if y != x):
                            has = True
                            break
                    if not has:
                        ok = False
                        break
                if ok:
                    hit = True
                    break
            if hit:
                best = k
            else:
                break
    return best


def brute_growth(cls, m):
    p = cls.n_points
    if m >= p:
        return len({tuple(r) for r in cls.patterns})
    best = 0
    for pts in combinations(range(p), m):
        best = max(best, len({tuple(row) for row in cls.patterns[:, list(pts)]}))
    return best


def greedy_cover_size(covers):
    """Sets the one-ball greedy cover takes, covers[i, j] saying set i covers
    element j: repeatedly the first set covering the most uncovered elements."""
    counts = covers.astype(np.int32)
    left = np.ones(covers.shape[1], dtype=np.int32)
    size = 0
    while left.any():
        left[covers[int(np.argmax(counts @ left))]] = 0
        size += 1
    return size


def brute_min_cover(dist_rows, ball, half):
    """Minimal number of balls of radius `half` centered in `ball` covering it."""
    k = len(ball)
    assert k <= 24
    covers = []
    for c in ball:
        mask = 0
        for idx, g in enumerate(ball):
            if dist_rows[c][g] <= half + 1e-12:
                mask |= 1 << idx
        covers.append(mask)
    universe = (1 << k) - 1
    for size in range(1, k + 1):
        for subset in combinations(range(k), size):
            m = 0
            for i in subset:
                m |= covers[i]
            if m == universe:
                return size
    return k


def brute_doubling(cls, px, gamma_frac):
    a = cls.patterns.astype(float)
    w = np.asarray(px.weights, dtype=float)
    rho = ((a[:, None, :] != a[None, :, :]) * w).sum(axis=2)
    best_size = 1
    for f in range(cls.n_rows):
        levels = sorted({gamma_frac} | {float(v) for v in rho[f] if v >= gamma_frac - 1e-12})
        for eps in levels:
            ball = [g for g in range(cls.n_rows) if rho[f][g] <= eps + 1e-12]
            best_size = max(best_size, brute_min_cover(rho, ball, eps / 2.0))
    return math.log(max(best_size, math.e))


def brute_offset_sup(values, c):
    """(1/n) E_eps max_g (sum eps_i g_i - c g_i^2) by explicit enumeration."""
    v = np.asarray(values, dtype=float)
    nvec, n = v.shape
    total = 0.0
    for signs in product((-1.0, 1.0), repeat=n):
        e = np.asarray(signs)
        total += max(float(e @ v[g] - c * (v[g] ** 2).sum()) for g in range(nvec))
    return total / (2 ** n) / n


def _ref_sups(values, penalties):
    """float32 max_g (sum_i eps_i g_i - penalty_g) for every row of the full
    (2^n x n) sign matrix, row k holding +1 at position i when bit i of k is set."""
    v = np.asarray(values, dtype=np.float32)
    k = np.arange(1 << v.shape[1], dtype=np.uint32)
    bits = (k[:, None] >> np.arange(v.shape[1], dtype=np.uint32)) & 1
    signs = (2.0 * bits - 1.0).astype(np.float32)
    return (signs @ v.T - np.asarray(penalties).astype(np.float32)).max(axis=1)


def ref_sup_mean(values, penalties):
    """E_eps max_g (sum_i eps_i g_i - penalty_g) as the float32 mean of the
    full sign-matrix enumeration that the library's kernel replaced; it is
    exact, and so equals ref_exact_sup_mean, for dyadic penalties."""
    return float(_ref_sups(values, penalties).mean())


def ref_exact_sup_mean(values, penalties):
    """The exact mean of the same 2^n float32 suprema (math.fsum, then an
    exact division by 2^n), which the library's grouped kernel must
    reproduce bit for bit where the suprema span at most 53 - n bits, as
    for values in {-1, 0, 1} with penalties c m, c >= 2^-9."""
    sups = _ref_sups(values, penalties)
    return math.fsum(sups.astype(np.float64).tolist()) / len(sups)


def _grouped_classes(keys):
    """First index and size of each class of equal keys."""
    classes = {}
    for i, key in enumerate(keys):
        classes.setdefault(key, []).append(i)
    return [ix[0] for ix in classes.values()], [len(ix) for ix in classes.values()]


_GROUPED_COMB = np.array([[math.comb(k, i) for i in range(17)] for k in range(17)],
                         dtype=np.float64)


def _grouped_sum_table(ks, tables):
    """(len(ks), cells) sum vectors of column groups of sizes ks and the
    number of sign vectors giving each, memoized in tables by ks."""
    table = tables.get(ks)
    if table is None:
        sizes = list(accumulate((k + 1 for k in ks), operator.mul, initial=1))
        k = np.array(ks, dtype=np.intp)[:, None]
        plus = np.arange(sizes[-1]) // np.array(sizes[:-1], dtype=np.intp)[:, None] % (k + 1)
        table = tables[ks] = ((2 * plus - k).astype(np.float32), _GROUPED_COMB[k, plus].prod(axis=0))
    return table


def _grouped_running_max(high, low, pen):
    """(a, b) -> max_r (high[r, a] + low[r, b] - pen[r]) in float32, adding a
    block of rows at a time into buffers of at most 2^16 floats."""
    sups = np.full((high.shape[1], low.shape[1]), -np.inf, dtype=np.float32)
    block = max(1, (1 << 16) // sups.size)
    work = np.empty((block, *sups.shape), dtype=np.float32)
    for start in range(0, len(pen), block):
        w, part = work[:min(block, len(pen) - start)], slice(start, start + block)
        np.add(high[part, :, None], low[part, None, :], out=w)
        w -= pen[part, None, None]
        np.maximum(sups, w[0] if len(w) == 1 else w.max(axis=0), out=sups)
    return sups


def ref_grouped_sup_mean(values, penalties, tables=None):
    """The exact mean as the grouped kernel computed it before sign-opposite
    columns were merged: it groups equal columns only (keyed by tuples of
    floats), keeps all-zero columns, and adds, subtracts the penalty,
    reduces and takes the running maximum in every block of rows.  The
    library's _sup_mean must reproduce it bit for bit wherever its mean is
    the exact mean of the float32 suprema."""
    v = np.asarray(values, dtype=np.float32)
    n = v.shape[1]
    pen = np.asarray(penalties, dtype=np.float32)
    rows, _ = _grouped_classes(zip(*v.T.tolist(), pen.tolist()))
    cols, ks = _grouped_classes(zip(*v[rows].tolist()))
    g = np.column_stack([v[rows][:, cols], pen[rows]])
    halves, cells = ([], []), [1, 1]
    for j in sorted(range(len(ks)), key=ks.__getitem__, reverse=True):
        side = int(cells[1] < cells[0])
        halves[side].append(j)
        cells[side] *= ks[j] + 1
    tables = {} if tables is None else tables
    low_s, low_w = _grouped_sum_table(tuple(ks[j] for j in halves[0]), tables)
    high_s, high_w = _grouped_sum_table(tuple(ks[j] for j in halves[1]), tables)
    sups = _grouped_running_max(g[:, halves[1]] @ high_s, g[:, halves[0]] @ low_s, g[:, -1])
    total = float(high_w @ np.einsum("ab,b->a", sups, low_w))
    return total / (1 << n)


def brute_hamming(patterns, weights=None):
    """Pairwise weighted mismatch counts in Python integers."""
    rows = np.asarray(patterns).tolist()
    w = [1] * len(rows[0]) if weights is None else [int(x) for x in weights]
    return [[sum(wk for a, b, wk in zip(r, s, w) if a != b) for s in rows] for r in rows]


def brute_kl_joint(b1, b2, weights, h, big_n, n):
    """Product KL via the explicit joint law over (point, label) outcomes."""
    b1 = np.asarray(b1)
    b2 = np.asarray(b2)
    w = np.asarray(weights, dtype=float) / np.asarray(weights, dtype=float).sum()
    kl = 0.0
    for i in range(b1.size):
        for y in (1, -1):
            p1 = (1 + (2 * b1[i] - 1) * h) / 2 if y == 1 else (1 - (2 * b1[i] - 1) * h) / 2
            p2 = (1 + (2 * b2[i] - 1) * h) / 2 if y == 1 else (1 - (2 * b2[i] - 1) * h) / 2
            q1 = w[i] * p1
            q2 = w[i] * p2
            if q1 > 0:
                kl += q1 * math.log(q1 / q2)
    return n * kl


def brute_excess_risk(instance, row):
    """R(f) - R(target) from the full joint law."""
    risk = 0.0
    risk_star = 0.0
    f = instance.cls.row(row)
    fstar = instance.fstar
    for i, px in enumerate(instance.px.weights):
        p_plus = (1.0 + instance.eta[i]) / 2.0
        for y, py in ((1, p_plus), (-1, 1.0 - p_plus)):
            risk += px * py * (f[i] != y)
            risk_star += px * py * (fstar[i] != y)
    return risk - risk_star


def ref_lemma_trials(instance, c, n, trials, seed):
    """Per-trial (lhs, rhs) of the symmetrization (excess-loss view, shift c)
    and contraction checks, and per-trial totals of the localization check
    (halved-difference view), with each trial's sample and signs drawn from
    its own make_rng generators, as the checks drew them one trial at a
    time; the batched checks must match them to the bit."""
    from locent.classes import sample
    from locent.processes import (ENUM_CAP, INNER_REPS, LossClassView, _sup_mean,
                                  shifted_process_sup)
    from locent.util import make_rng

    def sup(vals, pen, t, key):
        rng = None if n <= ENUM_CAP else make_rng(seed, t, key)
        return _sup_mean(vals, pen, INNER_REPS, rng)[0]

    def draw(t, key):
        return sample(instance, n, seed=int(make_rng(seed, t, key).integers(2 ** 31)))

    h = instance.margin
    excess, halved, disagree = (LossClassView(instance.cls, instance.target, view)
                                for view in ("excess_loss", "halved_difference",
                                             "disagreement"))
    sym, con, loc = [], [], []
    for t in range(trials):
        smp = draw(t, 1)
        vals = excess.values(smp.xs, smp.ys)
        sym.append((shifted_process_sup(excess, instance, smp, c),
                    (c + 2.0) / n * sup(vals, c / (c + 2.0) * vals.sum(axis=1), t, 2)))
        smp = draw(t, 3)
        gy, fv, gv = (excess.values(smp.xs, smp.ys), halved.values(smp.xs),
                      disagree.values(smp.xs))
        xi = (2.0 / 3.0) * (instance.abs_eta[smp.xs]
                            + np.where(instance.fstar[smp.xs] != smp.ys, 1.0, -1.0))
        term2 = float((gv @ xi - (h / 3.0) * gv.sum(axis=1)).max())
        con.append((sup(gy, c * gy.sum(axis=1), t, 4),
                    sup(fv, 0.5 * h * c * np.abs(fv).sum(axis=1), t, 5) + 1.5 * c * term2))
        # the target's own row is the zero function the check requires
        xs = instance.px.cdf.searchsorted(make_rng(seed, t, 6).random(n), side="right")
        vals = halved.values(xs)
        loc.append(sup(vals, 4.0 * c * np.abs(vals).sum(axis=1), t, 7) / n)
    return np.array(sym), np.array(con), np.array(loc)


def ref_run_trial(instance, n, policy, seed):
    """One ERM trial, sample to version space, as the per-trial loop ran it
    before the batched trial engine; the engine must match it to the bit."""
    from locent.erm import TrialReport, excess_risk, excess_risk_all
    from locent.util import make_rng

    rng = make_rng(seed)
    xs = instance.px.cdf.searchsorted(rng.random(n), side="right")
    flips = rng.random(n) < instance.flip_prob[xs]
    ys = instance.fstar[xs].astype(np.int8)
    ys[flips] = -ys[flips]
    patterns = instance.cls.patterns
    w = np.bincount(xs, weights=ys.astype(np.float64), minlength=instance.cls.n_points)
    risks = (n - patterns.astype(np.float64) @ w) / (2.0 * n)
    # tie-breaking
    ties = np.nonzero(risks <= risks.min() + 1e-12)[0]
    if policy.kind == "first_index" or ties.size == 1:
        chosen = int(ties[0])
    elif policy.kind == "seeded_random":
        chosen = int(make_rng(seed, 21).choice(ties))
    else:
        chosen = int(ties[np.argmax(excess_risk_all(policy.instance)[ties])])
    # version space: rows agreeing with the target on the sample
    agree = patterns[:, xs] == instance.fstar[xs]
    members = patterns[agree.all(axis=1)]
    if members.shape[0]:
        dis = members.max(axis=0) != members.min(axis=0)
        size, dis_mass = members.shape[0], float(instance.px.weights[dis].sum())
    else:
        size, dis_mass = 0, 0.0
    return TrialReport(n=n, seed=seed, chosen=chosen, empirical_risk=float(risks[chosen]),
                       excess=excess_risk(instance, chosen),
                       version_space_size=size, dis_mass=dis_mass)


# ---------------------------------------------------------------------------
# reference packing routines (numpy fancy indexing, local bit positions)


def ref_greedy_pack(dists, eps, subset=None):
    """Maximal-by-inclusion packing by minimum-index elimination."""
    if subset is None:
        subset = np.arange(dists.shape[0])
    chosen = []
    cand = subset
    while cand.size:
        i = int(cand[0])
        chosen.append(i)
        cand = cand[dists[i, cand] > eps]
    return chosen


def ref_exact_pack(dists, eps, subset, node_budget):
    """Maximum packing by branch and bound on subset-local bitsets, with the
    greedy packing as incumbent; returns (witness, certified)."""
    if subset is None:
        subset = np.arange(dists.shape[0])
    idx = np.asarray(subset)
    k = idx.size
    if k == 0:
        return [], True
    local = dists[np.ix_(idx, idx)]
    conflict = local <= eps
    np.fill_diagonal(conflict, False)
    adj = [int.from_bytes(np.packbits(conflict[i], bitorder="little").tobytes(), "little")
           for i in range(k)]
    greedy = ref_greedy_pack(local, eps)
    best_mask = 0
    for i in greedy:
        best_mask |= 1 << i
    best_size = len(greedy)
    full = (1 << k) - 1
    nodes = 0
    exhausted = True

    def expand(cand, cur, cur_size):
        nonlocal best_mask, best_size, nodes, exhausted
        if not exhausted:
            return
        nodes += 1
        if nodes > node_budget:
            exhausted = False
            return
        if cand == 0:
            if cur_size > best_size:
                best_size, best_mask = cur_size, cur
            return
        if cur_size + cand.bit_count() <= best_size:
            return
        rest = cand
        v, vdeg = -1, -1
        while rest:
            b = rest & -rest
            u = b.bit_length() - 1
            deg = (adj[u] & cand).bit_count()
            if deg > vdeg:
                v, vdeg = u, deg
            rest ^= b
        bit = 1 << v
        expand(cand & ~(adj[v] | bit), cur | bit, cur_size + 1)
        expand(cand & ~bit, cur, cur_size)

    expand(full, 0, 0)
    out = [int(idx[i]) for i in range(k) if best_mask >> i & 1]
    return out, exhausted


def ref_local_profile(proj, h, eps_values, exact, node_budget=None):
    """Best packing per radius, eps -> (size, center, witness), re-solving
    every (center, radius) pair; returns (profile, all_certified)."""
    from locent import geometry, packing

    out = {}
    certified_all = True
    if not eps_values:
        return out, certified_all
    dists = proj.dists
    total = proj.size
    u = proj.n_patterns
    centers = geometry._center_indices(u, exact)
    budget = packing.PACK_NODE_BUDGET if node_budget is None else node_budget
    discr = [(eps, min(int(math.floor(eps / h + 1e-12)), total),
              int(math.ceil(eps / 2 - 1e-12))) for eps in eps_values]
    max_dist = int(dists.max()) if u > 1 else 0
    full_cache = {}
    for f in centers:
        drow = dists[f]
        for eps, radius, sep in discr:
            prev = out.get(eps)
            if radius >= max_dist:
                if not exact:
                    if sep not in full_cache:
                        full_cache[sep] = ref_greedy_pack(dists, sep)
                        certified_all = False
                    witness = full_cache[sep]
                    if prev is None or len(witness) > prev[0]:
                        out[eps] = (len(witness), int(f), tuple(int(w) for w in witness))
                    continue
                ball = np.arange(u)
            else:
                ball = np.nonzero(drow <= radius)[0]
            if prev is not None and ball.size <= prev[0]:
                continue
            if exact:
                witness, certified = ref_exact_pack(dists, sep, ball, budget)
                if not certified:
                    certified_all = False
                    witness = ref_greedy_pack(dists, sep, ball)
            else:
                witness = ref_greedy_pack(dists, sep, ball)
                certified_all = False
            if prev is None or len(witness) > prev[0]:
                out[eps] = (len(witness), int(f), tuple(int(w) for w in witness))
    return out, certified_all


def ref_star_number(cls, budget):
    """The (rows x points) numpy star search the column-bitset one replaced:
    one `patterns != patterns[center]` matrix per center, the same DFS and
    node count, no chain bound; returns (value, witness, exact)."""
    p = cls.n_points
    patterns = cls.patterns
    best_set, best_center, best_witnesses = (), 0, ()
    nodes = 0
    budget_hit = False
    for center in range(cls.n_rows):
        if budget_hit:
            break
        dif = patterns != patterns[center]
        has_flip = dif.any(axis=0)
        order = [j for j in range(p) if has_flip[j]]
        if len(best_set) >= len(order) and best_set:
            continue

        def extend(chosen, viable, free, start):
            nonlocal best_set, best_center, best_witnesses, nodes, budget_hit
            if len(chosen) > len(best_set):
                best_set = tuple(chosen)
                best_center = center
                best_witnesses = tuple(int(np.argmax(v)) for v in viable)
            cands = [(idx, order[idx]) for idx in range(start, len(order))
                     if (free & dif[:, order[idx]]).any()]
            if len(chosen) + len(cands) <= len(best_set):
                return False
            for pos, (idx, x) in enumerate(cands):
                if len(chosen) + (len(cands) - pos) <= len(best_set):
                    return False
                nodes += 1
                if nodes > budget:
                    budget_hit = True
                    return True
                col = dif[:, x]
                new_viable = [v & ~col for v in viable]
                if any(not v.any() for v in new_viable):
                    continue
                new_viable.append(free & col)
                if extend(chosen + [x], new_viable, free & ~col, idx + 1):
                    return True
            return False

        extend([], [], np.ones(cls.n_rows, dtype=bool), 0)
    return len(best_set), (best_center, best_set, best_witnesses), not budget_hit


def _ref_restrictions(rows, points):
    """Distinct restrictions of the row bitsets to `points`."""
    mask = sum(1 << p for p in points)
    return len({row & mask for row in rows})


def ref_vc_dimension(cls, budget):
    """The level-wise VC search the blocked restriction counts replaced: one
    Python set of row bitsets per candidate, level 2 read off four boolean
    Gram products; returns (value, witness, exact)."""
    from locent.util import bitsets
    rows = bitsets(cls.patterns > 0)
    p = cls.n_points
    max_level = min(p, int(math.floor(math.log2(cls.n_rows))) if cls.n_rows > 1 else 0)
    cols = cls.patterns
    level1 = [(j,) for j in range(p) if cols[:, j].max() == 1 and cols[:, j].min() == -1]
    if not level1 or max_level == 0:
        return 0, (), True
    best = level1[0]
    if max_level == 1:
        return 1, best, True
    plus = (cls.patterns > 0).astype(np.float32)
    minus = 1.0 - plus
    ok = ((plus.T @ plus) >= 1) & ((plus.T @ minus) >= 1) \
        & ((minus.T @ plus) >= 1) & ((minus.T @ minus) >= 1)
    i, j = np.nonzero(np.triu(ok, k=1))
    current = list(zip(i.tolist(), j.tolist()))
    if current:
        best = current[0]
    k = 2
    checks = 0
    exact = True
    while k < max_level and current:
        nxt = []
        stop = False
        for s in current:
            for j in range(s[-1] + 1, p):
                cand = s + (j,)
                checks += 1
                if checks > budget:
                    stop = True
                    break
                if _ref_restrictions(rows, cand) == 2 ** (k + 1):
                    nxt.append(cand)
            if stop:
                break
        if stop:
            exact = False
            if nxt:
                best = nxt[0]
            break
        if nxt:
            best = nxt[0]
        current = nxt
        k += 1
    return len(best), best, exact


def ref_growth_function(cls, m, budget):
    """The growth scan the blocked restriction counts replaced: the first
    maximum over all m-subsets in lexicographic order while there are at most
    `budget` of them, else a greedy forward selection; returns (value,
    witness, exact)."""
    from locent.util import bitsets
    rows = bitsets(cls.patterns > 0)
    p = cls.n_points
    if m >= p:
        full = tuple(range(p))
        return _ref_restrictions(rows, full), full, True
    if math.comb(p, m) <= budget:
        best_v, best_s = -1, None
        for s in combinations(range(p), m):
            v = _ref_restrictions(rows, s)
            if v > best_v:
                best_v, best_s = v, s
        return best_v, best_s, True
    chosen = []
    for _ in range(m):
        best_v, best_j = -1, None
        for j in range(p):
            if j in chosen:
                continue
            v = _ref_restrictions(rows, tuple(chosen + [j]))
            if v > best_v:
                best_v, best_j = v, j
        chosen.append(best_j)
    return _ref_restrictions(rows, tuple(chosen)), tuple(chosen), False


def ref_separator_patterns(coords):
    """The planar pair-line enumeration on exact rationals (Fraction
    coordinates), which the library's integer cross products replaced."""
    pts = [(Fraction(float(x)), Fraction(float(y))) for x, y in np.asarray(coords, dtype=float)]
    n = len(pts)
    found = {(1,) * n, (-1,) * n}
    distinct = sorted(set(pts))
    for i, (ax, ay) in enumerate(distinct):
        for bx, by in distinct[i + 1:]:
            dx, dy = bx - ax, by - ay
            side = [dx * (y - ay) - dy * (x - ax) for x, y in pts]
            along = [dx * x + dy * y for x, y in pts]
            for cut in {t for t, c in zip(along, side) if c == 0}:
                for u in (1, -1):
                    lab = tuple((u if t < cut else -u) if c == 0 else (1 if c > 0 else -1)
                                for t, c in zip(along, side))
                    found.add(lab)
                    found.add(tuple(-v for v in lab))
    return np.array(sorted(found, reverse=True), dtype=np.int8)


def _phase1_witness(rows):
    """Phase-1 simplex (Bland's rule) for A z >= 1 with z free.

    rows[i] holds the coefficients of constraint i over the free variables.
    Standard form uses z = u - w with u, w >= 0, a slack and an artificial
    variable per constraint.  Returns a feasible z, or None.
    """
    m = len(rows)
    k = len(rows[0])
    ncols = 2 * k + 2 * m  # u, w, slacks, artificials
    one = Fraction(1)
    zero = Fraction(0)

    # tableau[i] = coefficients + rhs; basis starts at the artificials
    tableau = []
    for i, row in enumerate(rows):
        t = [zero] * (ncols + 1)
        for j, c in enumerate(row):
            t[j] = c
            t[k + j] = -c
        t[2 * k + i] = -one  # slack: A z - s = 1
        t[2 * k + m + i] = one
        t[ncols] = one
        tableau.append(t)
    basis = [2 * k + m + i for i in range(m)]

    # objective: minimize sum of artificials; reduced costs via big row
    obj = [zero] * (ncols + 1)
    for i in range(m):
        for j in range(ncols + 1):
            obj[j] -= tableau[i][j]
    for i in range(m):
        obj[2 * k + m + i] += one

    while True:
        enter = -1
        for j in range(ncols):
            if obj[j] < zero:
                enter = j  # Bland: lowest index with negative reduced cost
                break
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(m):
            a = tableau[i][enter]
            if a > zero:
                ratio = tableau[i][ncols] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            break  # unbounded phase-1 cannot happen; defensive
        piv = tableau[leave][enter]
        tableau[leave] = [c / piv for c in tableau[leave]]
        for i in range(m):
            if i != leave and tableau[i][enter] != zero:
                f = tableau[i][enter]
                tableau[i] = [c - f * p for c, p in zip(tableau[i], tableau[leave])]
        if obj[enter] != zero:
            f = obj[enter]
            obj = [c - f * p for c, p in zip(obj, tableau[leave])]
        basis[leave] = enter

    if -obj[ncols] != zero:
        return None
    z = [zero] * k
    for i, b in enumerate(basis):
        if b < k:
            z[b] += tableau[i][ncols]
        elif b < 2 * k:
            z[b - k] -= tableau[i][ncols]
    return z


def is_affinely_separable(coords, labels):
    """Whether labels in {-1,+1} are realized by sign(<w,x>+b) with no point
    on the boundary: the LP v_i * (<w,x_i> + b) >= 1 over exact rationals
    (floats are rationals, so there is no tolerance), in any dimension."""
    rows = [[Fraction(int(v)) * Fraction(float(c)) for c in point] + [Fraction(int(v))]
            for point, v in zip(np.asarray(coords, dtype=float), labels)]
    return _phase1_witness(rows) is not None
