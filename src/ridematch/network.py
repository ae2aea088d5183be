"""Shareability network construction and maximum-weight matching.

Nodes are rides; an undirected edge appears when either ride proposed the
other, weighted by the exact duration-based matching utility. Total matching
utility comes from an exact blossom solution of the resulting non-bipartite
matching instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .roadnet import RoadNetwork, RoutingLedger
from .trips import Ride
from .utility import DEFAULT_MAX_DELAY_S, pairwise_utilities


@dataclass
class ShareabilityNetwork:
    nodes: list[int]
    edges: list[tuple[int, int, float]]  # (u, v, weight seconds), u < v, weight > 0
    evaluated_pairs: int = 0


@dataclass
class MatchingResult:
    pairs: list[tuple[int, int]]
    total_utility: float
    unmatched: list[int]


def build_network(
    rides: list[Ride],
    proposals: dict[int, list],
    net: RoadNetwork,
    max_delay_s: float = DEFAULT_MAX_DELAY_S,
    ledger: RoutingLedger | None = None,
) -> ShareabilityNetwork:
    """Symmetrize proposals, weight each distinct pair exactly, drop zeros.

    Proposal lists may hold ride ids or (id, score) tuples. Each distinct
    pair is evaluated once and charged as 6 batched routing calls.
    """
    idx_of = {r.id: i for i, r in enumerate(rides)}
    pair_set = set()
    for rid, cands in proposals.items():
        if rid not in idx_of:
            raise ValueError(f"proposal references unknown ride id {rid}")
        for cand in cands:
            cid = cand[0] if isinstance(cand, tuple) else cand
            if cid not in idx_of:
                raise ValueError(f"proposal references unknown ride id {cid}")
            if cid == rid:
                continue
            pair_set.add((min(rid, cid), max(rid, cid)))
    pairs = sorted(pair_set)
    nodes = [r.id for r in rides]
    if not pairs:
        return ShareabilityNetwork(nodes=nodes, edges=[], evaluated_pairs=0)
    pair_idx = np.array([[idx_of[u], idx_of[v]] for u, v in pairs], dtype=np.int64)
    weights = pairwise_utilities(net, rides, pair_idx, max_delay_s, ledger)
    edges = [(u, v, float(w)) for (u, v), w in zip(pairs, weights) if w > 0.0]
    return ShareabilityNetwork(nodes=nodes, edges=edges, evaluated_pairs=len(pairs))


def max_weight_matching(g: ShareabilityNetwork) -> MatchingResult:
    """Exact maximum-weight matching, certified by its LP duals.

    Edges are (u, v, w) in either orientation; a pair listed twice keeps its
    larger weight, and self-pairs and edges with w <= 0 are dropped (they
    never add utility). The
    graph is split into connected components and each is solved by the
    primal-dual blossom method (`_blossom`); the solver's duals must satisfy
    complementary slackness for the blossom LP (`_certify`), or this raises
    AssertionError.

    Tie rule: the pairs are a maximum-weight matching; among tied optima, the
    result is the one the solver reaches in its fixed order (components by
    lowest ride id, nodes by ascending id, edges by sorted (u, v)). It depends
    only on the set of weighted edges, not on the order of `g.nodes` or
    `g.edges`. `total_utility` sums the matched weights in sorted pair order.
    """
    u, v, w = zip(*g.edges) if g.edges else ((), (), ())
    u = np.array(u, dtype=np.int64)
    v = np.array(v, dtype=np.int64)
    w = np.array(w, dtype=np.float64)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    # sort by (lo, hi, w); the last edge of each (lo, hi) run has the largest weight
    order = np.lexsort((w, hi, lo))
    lo, hi, w = lo[order], hi[order], w[order]
    last = np.append((lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1]), True)
    keep = last & (lo != hi) & (w > 0.0)
    lo, hi, w = lo[keep], hi[keep], w[keep]

    ids, ends = np.unique(np.concatenate([lo, hi]), return_inverse=True)
    a, b = ends[: len(lo)], ends[len(lo) :]
    n = len(ids)
    adj = coo_matrix((np.ones(len(a)), (a, b)), shape=(n, n))
    n_comp, comp = connected_components(adj, directed=False)
    # number the components by their smallest node, then group nodes (by id)
    # and edges (by (u, v)) per component
    _, first = np.unique(comp, return_index=True)
    comp = np.argsort(np.argsort(first))[comp]
    node_order = np.argsort(comp, kind="stable")
    bounds = np.searchsorted(comp[node_order], np.arange(n_comp + 1))
    local = np.empty(n, dtype=np.int64)
    local[node_order] = np.arange(n) - bounds[comp[node_order]]
    edge_comp = comp[a]
    edge_order = np.argsort(edge_comp, kind="stable")
    edge_bounds = np.searchsorted(edge_comp[edge_order], np.arange(n_comp + 1))

    matched: list[int] = []
    for c in range(n_comp):
        sel = edge_order[edge_bounds[c] : edge_bounds[c + 1]]
        eu, ev, ew = local[a[sel]].tolist(), local[b[sel]].tolist(), w[sel].tolist()
        size = int(bounds[c + 1] - bounds[c])
        picked, u_dual, blossoms = _blossom(size, eu, ev, ew)
        _certify(eu, ev, ew, picked, u_dual, blossoms)
        matched.extend(sel[picked].tolist())
    matched.sort()
    pairs = list(zip(ids[a[matched]].tolist(), ids[b[matched]].tolist()))
    total = float(sum(w[matched].tolist()))
    seen = {x for p in pairs for x in p}
    unmatched = sorted(set(g.nodes) - seen)
    return MatchingResult(pairs=pairs, total_utility=total, unmatched=unmatched)


def _blossom(n: int, eu: list[int], ev: list[int], ew: list[float]):
    """Maximum-weight matching of one graph by the primal-dual blossom method.

    The O(n^3) form of Edmonds' algorithm (Galil 1986). Vertices are
    0..n-1 and edge k joins eu[k] and ev[k] with weight ew[k] > 0. Returns
    `(matched, u, blossoms)`: the indices of the matched edges in ascending
    order, the vertex duals u_v, and every blossom left at the end as
    `(members, z)`. Internally the vertex duals are kept doubled, so that
    the slack of edge k is `dual[eu[k]] + dual[ev[k]] - 2 * ew[k]` plus
    twice the z of each blossom that holds both ends.
    """
    m = len(ew)
    # Endpoint p of edge k is 2k (at eu[k]) or 2k + 1 (at ev[k]); p ^ 1 is
    # the other end, and p >> 1 the edge.
    at = [0] * (2 * m)
    at[0::2] = eu
    at[1::2] = ev
    w2 = [2.0 * x for x in ew]
    nbr: list[list[int]] = [[] for _ in range(n)]  # far endpoints of the edges at each vertex
    for k in range(m):
        nbr[eu[k]].append(2 * k + 1)
        nbr[ev[k]].append(2 * k)

    nb = 2 * n  # ids 0..n-1 are vertices, n..2n-1 blossoms
    dual = [max(ew)] * n + [0.0] * n
    mate = [-1] * n  # far endpoint of the matched edge at each vertex
    label = [0] * nb  # 0 free, 1 S (outer), 2 T (inner); +4 marks a path walk
    via = [-1] * nb  # endpoint through which a top-level blossom got its label
    top = list(range(n))  # outermost blossom holding each vertex
    parent = [-1] * nb
    kids: list[list[int] | None] = [None] * nb  # sub-blossoms around the cycle, base first
    links: list[list[int] | None] = [None] * nb  # links[b][i]: endpoint in kids[i] of its edge to kids[i+1]
    base = list(range(n)) + [-1] * n
    # best[x]: least-slack edge from an S-vertex to vertex x not yet reached,
    # or from S-blossom x to another S-blossom
    best = [-1] * nb
    best_to: list[list[int] | None] = [None] * nb  # an S-blossom's least-slack edge to each neighbour
    spare = list(range(nb - 1, n - 1, -1))  # unused blossom ids
    tight = [False] * m
    queue: list[int] = []

    def slack(k):
        return dual[eu[k]] + dual[ev[k]] - w2[k]

    def leaves(b):
        if b < n:
            return [b]
        out, stack = [], [b]
        while stack:
            t = stack.pop()
            if t < n:
                out.append(t)
            else:
                stack.extend(kids[t])
        return out

    def set_label(x, t, p):
        # label vertex x and its top-level blossom; a T-blossom's base mate becomes S
        while True:
            b = top[x]
            label[x] = label[b] = t
            via[x] = via[b] = p
            best[x] = best[b] = -1
            if t == 1:
                queue.extend(leaves(b))
                return
            q = mate[base[b]]
            x, t, p = at[q], 1, q ^ 1

    def find_base(x, y):
        # walk the tree paths of S-vertices x and y in turn; return the base
        # of their nearest common blossom, or -1 if they lie in different trees
        marked = []
        found = -1
        while x != -1:
            b = top[x]
            if label[b] & 4:
                found = base[b]
                break
            marked.append(b)
            label[b] = 5
            if via[b] == -1:
                x = -1
            else:
                x = at[via[top[at[via[b]]]]]
            if y != -1:
                x, y = y, x
        for b in marked:
            label[b] = 1
        return found

    def make_blossom(root, k):
        # the tight edge k and the tree paths from its ends up to root's
        # blossom close an odd cycle: make it one new S-blossom
        x, y = eu[k], ev[k]
        broot, bx, by = top[root], top[x], top[y]
        b = spare.pop()
        base[b] = root
        parent[b] = -1
        parent[broot] = b
        cyc, lnk = [], []
        while bx != broot:
            parent[bx] = b
            cyc.append(bx)
            lnk.append(via[bx])
            bx = top[at[via[bx]]]
        cyc.append(broot)
        cyc.reverse()
        lnk.reverse()
        lnk.append(2 * k)
        while by != broot:
            parent[by] = b
            cyc.append(by)
            lnk.append(via[by] ^ 1)
            by = top[at[via[by]]]
        kids[b], links[b] = cyc, lnk
        label[b] = 1
        via[b] = via[broot]
        dual[b] = 0.0
        for v in leaves(b):
            if label[top[v]] == 2:
                queue.append(v)  # former T-vertices are S now
            top[v] = b
        # least-slack edge from the new blossom to each neighbouring S-blossom
        to: dict[int, int] = {}
        for c in cyc:
            if best_to[c] is None:
                cand = [p >> 1 for v in leaves(c) for p in nbr[v]]
            else:
                cand = best_to[c]
            for e in cand:
                bj = top[eu[e]] if top[ev[e]] == b else top[ev[e]]
                if bj != b and label[bj] == 1:
                    old = to.get(bj, -1)
                    if old == -1 or slack(e) < slack(old):
                        to[bj] = e
            best_to[c] = None
            best[c] = -1
        best_to[b] = list(to.values())
        best[b] = min(best_to[b], key=slack) if best_to[b] else -1

    def toward(lnk, j, step):
        # endpoint, in child j of a blossom with links lnk, of the cycle edge
        # to child j + step (the children are numbered mod len(lnk))
        if step == 1:
            return lnk[j % len(lnk)]
        return lnk[(j - 1) % len(lnk)] ^ 1

    def dissolve(b, end_of_stage):
        # make the children of blossom b top-level again; at the end of a
        # stage, also the children whose own z has reached 0
        for c in kids[b]:
            parent[c] = -1
            if c < n:
                top[c] = c
            elif end_of_stage and dual[c] == 0.0:
                dissolve(c, end_of_stage)
            else:
                for v in leaves(c):
                    top[v] = c
        if not end_of_stage and label[b] == 2:
            # Relabel: the even side of the cycle from the entry child to the
            # base child alternates T, S, ..., T; the other children are free
            # unless one holds a vertex already reached from an S-vertex.
            cyc, lnk = kids[b], links[b]
            size = len(cyc)
            entry = top[at[via[b] ^ 1]]
            j = cyc.index(entry)
            step = 1 if j & 1 else -1
            p = via[b]
            while j % size != 0:
                set_label(at[p ^ 1], 2, p)  # T, and its mate child S
                tight[toward(lnk, j, step) >> 1] = True
                j += step
                p = toward(lnk, j, step)
                tight[p >> 1] = True
                j += step
            c = cyc[0]
            label[at[p ^ 1]] = label[c] = 2
            via[at[p ^ 1]] = via[c] = p
            best[c] = -1
            j += step
            while cyc[j % size] != entry:
                c = cyc[j % size]
                j += step
                if label[c] == 1:
                    continue
                for v in leaves(c):
                    if label[v] != 0:
                        set_label(v, 2, via[v])
                        break
        label[b] = via[b] = -1
        kids[b] = links[b] = best_to[b] = None
        base[b] = best[b] = -1
        spare.append(b)

    def rebase(b, v):
        # swap matched and unmatched edges inside b so that vertex v is its base
        c = v
        while parent[c] != b:
            c = parent[c]
        if c >= n:
            rebase(c, v)
        cyc, lnk = kids[b], links[b]
        size = len(cyc)
        i = j = cyc.index(c)
        step = 1 if i & 1 else -1
        while j % size != 0:
            j += step
            p = toward(lnk, j, step)
            if cyc[j % size] >= n:
                rebase(cyc[j % size], at[p])
            j += step
            if cyc[j % size] >= n:
                rebase(cyc[j % size], at[p ^ 1])
            mate[at[p]] = p ^ 1
            mate[at[p ^ 1]] = p
        kids[b] = cyc[i:] + cyc[:i]
        links[b] = lnk[i:] + lnk[:i]
        base[b] = base[kids[b][0]]

    def augment(k):
        # flip the augmenting path through edge k between two S-trees
        for s, p in ((eu[k], 2 * k + 1), (ev[k], 2 * k)):
            while True:
                bs = top[s]
                if bs >= n:
                    rebase(bs, s)
                mate[s] = p
                if via[bs] == -1:
                    break
                bt = top[at[via[bs]]]
                q = via[bt]
                s, t = at[q], at[q ^ 1]
                if bt >= n:
                    rebase(bt, t)
                mate[t] = q
                p = q ^ 1

    for _ in range(n):
        label[:] = [0] * nb
        best[:] = [-1] * nb
        best_to[n:] = [None] * n
        tight[:] = [False] * m
        queue.clear()
        for v in range(n):
            if mate[v] == -1 and label[top[v]] == 0:
                set_label(v, 1, -1)
        augmented = False
        while True:
            while queue and not augmented:
                v = queue.pop()
                dv = dual[v]
                for p in nbr[v]:
                    k = p >> 1
                    x = at[p]
                    bv, bx = top[v], top[x]
                    if bv == bx:
                        continue
                    if not tight[k]:
                        s = dv + dual[x] - w2[k]
                        if s > 0.0:
                            # not tight yet: keep the least-slack edge from an
                            # S-blossom to another, or to a vertex not reached
                            if label[bx] == 1:
                                t = bv
                            elif label[x] == 0:
                                t = x
                            else:
                                continue
                            e = best[t]
                            if e == -1 or s < dual[eu[e]] + dual[ev[e]] - w2[e]:
                                best[t] = k
                            continue
                        tight[k] = True
                    if label[bx] == 0:
                        set_label(x, 2, p ^ 1)
                    elif label[bx] == 1:
                        root = find_base(v, x)
                        if root >= 0:
                            make_blossom(root, k)
                        else:
                            augment(k)
                            augmented = True
                            break
                    elif label[x] == 0:
                        # x sits inside a T-blossom: remember how to reach it
                        label[x] = 2
                        via[x] = p ^ 1
            if augmented:
                break
            # No tight edge left to follow: move the duals by the largest
            # step that keeps them feasible.
            kind, delta, arg = 1, min(dual[:n]), -1
            for v in range(n):
                if label[top[v]] == 0 and best[v] != -1:
                    d = slack(best[v])
                    if d < delta:
                        kind, delta, arg = 2, d, best[v]
            for b in range(nb):
                if parent[b] == -1 and label[b] == 1 and best[b] != -1:
                    d = slack(best[b]) / 2.0
                    if d < delta:
                        kind, delta, arg = 3, d, best[b]
            for b in range(n, nb):
                if base[b] >= 0 and parent[b] == -1 and label[b] == 2 and dual[b] < delta:
                    kind, delta, arg = 4, dual[b], b
            for v in range(n):
                t = label[top[v]]
                if t == 1:
                    dual[v] -= delta
                elif t == 2:
                    dual[v] += delta
            for b in range(n, nb):
                if base[b] >= 0 and parent[b] == -1:
                    if label[b] == 1:
                        dual[b] += delta
                    elif label[b] == 2:
                        dual[b] -= delta
            if kind == 1:
                break
            if kind == 2:
                tight[arg] = True
                i = eu[arg] if label[top[eu[arg]]] == 1 else ev[arg]
                queue.append(i)
            elif kind == 3:
                tight[arg] = True
                queue.append(eu[arg])
            else:
                dissolve(arg, False)
        if not augmented:
            break
        for b in range(n, nb):
            if parent[b] == -1 and base[b] >= 0 and label[b] == 1 and dual[b] == 0.0:
                dissolve(b, True)

    matched = sorted({mate[v] >> 1 for v in range(n) if mate[v] != -1})
    blossoms = [(leaves(b), dual[b]) for b in range(n, nb) if base[b] >= 0]
    return matched, [d / 2.0 for d in dual[:n]], blossoms


def _certify(eu, ev, ew, matched, u, blossoms) -> None:
    """Raise AssertionError unless (matched, u, blossoms) pass complementary slackness.

    For the blossom LP (max sum w_e x_e subject to x(δ(v)) <= 1 and
    x(E(B)) <= (|B| - 1) / 2 for odd B) the duals are u_v >= 0 and z_B >= 0
    with slack u_i + u_j + sum(z_B : B holds i and j) - w_ij >= 0 on every
    edge. The matching is optimal when, besides, every matched edge has zero
    slack, every unmatched vertex has u_v = 0, and every blossom with z_B > 0
    holds (|B| - 1) / 2 matched edges. Runs in O(m · blossom depth), with a
    tolerance of 1e-9 times the largest weight.
    """
    n = len(u)
    tol = 1e-9 * max(ew)
    owner = [-1] * n
    for k in matched:
        for x in (eu[k], ev[k]):
            if owner[x] != -1:
                raise AssertionError(f"matching certificate: vertex {x} is matched twice")
            owner[x] = k
    if min(u) < -tol or any(z < -tol for _, z in blossoms):
        raise AssertionError("matching certificate: a dual is negative")
    for x in range(n):
        if owner[x] == -1 and u[x] > tol:
            raise AssertionError(f"matching certificate: unmatched vertex {x} has dual {u[x]}")
    # blossoms form a laminar family: listed outermost first, the blossoms that
    # hold a vertex form a chain, and those that hold both ends of an edge are
    # the common prefix of the two chains
    order = sorted(range(len(blossoms)), key=lambda i: -len(blossoms[i][0]))
    chain: list[list[int]] = [[] for _ in range(n)]
    for i in order:
        for x in blossoms[i][0]:
            chain[x].append(i)
    inside = [0] * len(blossoms)
    for k in range(len(ew)):
        i, j = eu[k], ev[k]
        s = u[i] + u[j] - ew[k]
        for bi, bj in zip(chain[i], chain[j]):
            if bi != bj:
                break
            s += blossoms[bi][1]
            if owner[i] == k:
                inside[bi] += 1
        if s < -tol:
            raise AssertionError(f"matching certificate: edge {k} has negative slack {s}")
        if owner[i] == k and s > tol:
            raise AssertionError(f"matching certificate: matched edge {k} has slack {s}")
    for (members, z), count in zip(blossoms, inside):
        if z > tol and 2 * count + 1 != len(members):
            raise AssertionError("matching certificate: a blossom with positive dual is not full")


def greedy_matching(g: ShareabilityNetwork) -> MatchingResult:
    """Greedy matching by descending weight (ties by (u, v)): a lower bound on
    the maximum-weight total, at least half of it."""
    seen: set[int] = set()
    pairs = []
    total = 0.0
    for u, v, w in sorted(g.edges, key=lambda e: (-e[2], e[0], e[1])):
        if u not in seen and v not in seen:
            pairs.append((u, v))
            seen.add(u)
            seen.add(v)
            total += w
    return MatchingResult(pairs=sorted(pairs), total_utility=total, unmatched=sorted(set(g.nodes) - seen))


def optimal_utility(
    rides: list[Ride],
    net: RoadNetwork,
    max_delay_s: float = DEFAULT_MAX_DELAY_S,
    ledger: RoutingLedger | None = None,
    cap: int = 3000,
) -> MatchingResult:
    """Matching over the complete pairwise network: the unbounded-time optimum."""
    n = len(rides)
    if n > cap:
        raise ValueError(
            f"optimal baseline is O(n^2) and capped at {cap} rides (got {n}); "
            "lower the load or raise optimal_cap"
        )
    iu, ju = np.triu_indices(n, k=1)
    pairs = np.stack([iu, ju], axis=1)
    weights = np.empty(len(pairs))
    for lo in range(0, len(pairs), 1_000_000):
        hi = min(lo + 1_000_000, len(pairs))
        weights[lo:hi] = pairwise_utilities(net, rides, pairs[lo:hi], max_delay_s, ledger)
    ids = np.array([r.id for r in rides], dtype=np.int64)
    keep = weights > 0.0
    a, b = ids[iu[keep]], ids[ju[keep]]
    edges = list(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist(), weights[keep].tolist()))
    g = ShareabilityNetwork(nodes=ids.tolist(), edges=edges, evaluated_pairs=len(pairs))
    return max_weight_matching(g)
