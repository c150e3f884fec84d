"""Differential tests: the array runtime kernel vs its scalar oracles.

PR 7 moved the runtime hot paths (policy subset search, resource-DB fit
tests, ring span/contention math) onto flat numpy arrays.  Every array
path is held to the implementation it replaced, which lives in
``tests/reference_runtime.py``:

- ``ScalarPolicy`` is the original per-board Python branch-and-bound;
- ``ExhaustivePolicy`` is the exhaustive enumeration both pruned
  searches must agree with;
- ``reference_split_virtual_blocks`` is the dict/set block split;
- ``ResourceDB.verify()`` cross-checks the flat free-count/bitmap
  mirrors against the authoritative per-board sets.

These tests replay randomized workloads through all paths and assert
placements, keys, and counters are *identical* -- not approximately
equal.  Seeds are fixed; every trial is reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import pytest

from repro.cluster.network import RingNetwork
from repro.runtime.policy import CommunicationAwarePolicy, \
    split_virtual_blocks
from repro.runtime.resource_db import ResourceDB
from tests.reference_runtime import ExhaustivePolicy, ScalarPolicy, \
    reference_split_virtual_blocks


@dataclass(frozen=True)
class FakeApp:
    """The minimal app surface the policy touches."""

    name: str
    num_blocks: int
    flows: dict = field(default_factory=dict, hash=False)


def _free_by_board(rng: random.Random, boards: int,
                   blocks_per_board: int) -> dict[int, list[int]]:
    """A random occupancy state: each board keeps a random subset of
    its block addresses free (possibly none)."""
    free = {}
    for b in range(boards):
        k = rng.randint(0, blocks_per_board)
        free[b] = sorted(rng.sample(range(blocks_per_board), k))
    return free


def _policies() -> dict[str, CommunicationAwarePolicy]:
    return {
        "array": CommunicationAwarePolicy(),
        "scalar": ScalarPolicy(),
        "exhaustive": ExhaustivePolicy(),
    }


class TestKernelEquivalence:
    @pytest.mark.parametrize("boards,blocks", [(4, 4), (8, 4), (12, 6)])
    def test_randomized_three_way_equivalence(self, boards, blocks):
        """array == scalar == exhaustive on random states (the PR's
        core acceptance criterion, at differential scale)."""
        rng = random.Random(70_000 + boards)
        network = RingNetwork(boards)
        policies = _policies()
        agreed = 0
        for trial in range(150):
            free = _free_by_board(rng, boards, blocks)
            needed = rng.randint(1, boards * blocks // 2)
            app = FakeApp(name=f"t{trial}", num_blocks=needed)
            outcomes = {name: p.allocate(app, free, network)
                        for name, p in policies.items()}
            first = outcomes["array"]
            for name, placement in outcomes.items():
                if first is None:
                    assert placement is None, name
                else:
                    assert placement is not None, name
                    assert placement.mapping == first.mapping, \
                        f"{name} diverged on trial {trial}"
            if first is not None:
                agreed += 1
        assert agreed > 30  # the trials actually exercised placements

    def test_tie_heavy_states_resolve_identically(self):
        """Satellite: the pruned search and the exhaustive search must
        build the same *types* in their tie-break keys (int span, int
        leftover, tuple subset).  Uniform free counts make every
        same-size subset tie on capacity, so any key-type or ordering
        skew between the paths surfaces as a different winner."""
        boards = 8
        network = RingNetwork(boards)
        policies = _policies()
        for free_count in (1, 2, 3):
            for needed in range(1, boards * free_count + 1):
                free = {b: list(range(free_count))
                        for b in range(boards)}
                app = FakeApp(name=f"tie{free_count}-{needed}",
                              num_blocks=needed)
                outcomes = {name: p.allocate(app, dict(free), network)
                            for name, p in policies.items()}
                mappings = {name: p.mapping for name, p
                            in outcomes.items()}
                assert mappings["array"] == mappings["scalar"] \
                    == mappings["exhaustive"], \
                    f"free={free_count} needed={needed}"

    def test_kernel_equivalence_under_live_contention(self):
        """Same comparison with flows registered on the ring, so span
        tie-breaks interact with real distance sums."""
        boards = 8
        network = RingNetwork(boards)
        network.register_flow("bg1", [0, 3])
        network.register_flow("bg2", [2, 6, 7])
        rng = random.Random(7)
        policies = _policies()
        for trial in range(60):
            free = _free_by_board(rng, boards, 4)
            needed = rng.randint(1, 12)
            app = FakeApp(name=f"c{trial}", num_blocks=needed)
            outcomes = [p.allocate(app, dict(free), network)
                        for p in policies.values()]
            mappings = [None if o is None else o.mapping
                        for o in outcomes]
            assert mappings[0] == mappings[1] == mappings[2]

    def test_search_counters_match_scalar(self):
        """The array kernel's visited/pruned counters are identical to
        the scalar kernel's by construction -- the telemetry the golden
        traces assert on."""
        from repro.obs.tracer import Tracer
        boards = 8
        network = RingNetwork(boards)
        rng = random.Random(21)
        for trial in range(40):
            free = _free_by_board(rng, boards, 4)
            needed = rng.randint(1, 10)
            app = FakeApp(name=f"s{trial}", num_blocks=needed)
            counts = {}
            for kernel, policy in (("array", CommunicationAwarePolicy()),
                                   ("scalar", ScalarPolicy())):
                tracer = Tracer()
                policy.tracer = tracer
                policy.allocate(app, dict(free), network)
                events = [e for e in tracer.entries()
                          if e["name"] == "policy.allocate"]
                counts[kernel] = [
                    (e["fields"]["visited"], e["fields"]["pruned"],
                     e["fields"]["rounds"], tuple(e["fields"]["boards"]))
                    for e in events]
            assert counts["array"] == counts["scalar"], trial


class TestResourceDBArrayMirrors:
    def _db(self, cluster) -> ResourceDB:
        return ResourceDB(cluster)

    def test_random_walk_keeps_mirrors_consistent(self, cluster):
        """allocate/release/fail/repair in random order; verify() cross
        checks the flat arrays against the per-board sets after every
        step."""
        db = self._db(cluster)
        rng = random.Random(99)
        live: dict[int, list] = {}
        rid = 0
        failed: set[int] = set()
        for _ in range(300):
            roll = rng.random()
            if roll < 0.5:
                # allocate 1..4 blocks from whatever is free
                free = [(b, i)
                        for b, blocks in db.free_by_board().items()
                        for i in blocks]
                want = rng.randint(1, 4)
                if len(free) >= want:
                    addrs = rng.sample(free, want)
                    db.allocate(rid, addrs)
                    live[rid] = addrs
                    rid += 1
            elif roll < 0.8 and live:
                victim = rng.choice(sorted(live))
                db.release(victim)
                del live[victim]
            elif roll < 0.9 and not failed:
                candidates = [b for b in range(len(cluster.boards))
                              if not any(a[0] == b
                                         for addrs in live.values()
                                         for a in addrs)]
                if candidates:
                    board = rng.choice(candidates)
                    db.set_board_failed(board)
                    failed.add(board)
            elif failed:
                board = failed.pop()
                db.set_board_repaired(board)
            db.verify()

    def test_fit_mask_matches_free_counts(self, cluster):
        db = self._db(cluster)
        rng = random.Random(5)
        taken = []
        for b, blocks in db.free_by_board().items():
            for i in blocks:
                if rng.random() < 0.4:
                    taken.append((b, i))
        if taken:
            db.allocate(1, taken)
        counts = {b: len(addrs)
                  for b, addrs in db.free_by_board().items()}
        ids = db.board_ids_array()
        for needed in range(0, 5):
            mask = db.fit_mask(needed)
            for row, board in enumerate(ids.tolist()):
                assert bool(mask[row]) == (counts[board] >= needed)

    def test_total_free_blocks_is_o1_and_correct(self, cluster):
        db = self._db(cluster)
        total = sum(len(a) for a in db.free_by_board().values())
        assert db.total_free_blocks() == total
        board, blocks = next(iter(db.free_by_board().items()))
        first = [(board, i) for i in blocks[:2]]
        db.allocate(7, first)
        assert db.total_free_blocks() == total - len(first)
        db.release(7)
        assert db.total_free_blocks() == total


class TestControllerFastPath:
    """``try_deploy`` searches the resource DB's count vector
    (``allocate_fast``) with or without a tracer attached; both must
    place every request identically.  The record-level comparison
    against the candidate-map path a traced controller used to take is
    ``tests/test_observed_deploy_path.py``."""

    def _drive(self, traced: bool, compiled_small, compiled_medium,
               compiled_large):
        from repro.cluster.cluster import make_cluster
        from repro.obs.tracer import Tracer
        from repro.runtime.controller import SystemController

        controller = SystemController(make_cluster(num_boards=4))
        if traced:
            controller.attach_tracer(Tracer())
        apps = [compiled_small, compiled_medium, compiled_large]
        rng = random.Random(11)
        mappings = []
        rid = 0
        for step in range(60):
            if controller.deployments and rng.random() < 0.4:
                victim = rng.choice(sorted(controller.deployments))
                controller.release(controller.deployments[victim],
                                   now=float(step))
                mappings.append(("release", victim))
            else:
                app = rng.choice(apps)
                d = controller.try_deploy(app, rid, float(step))
                mappings.append(
                    ("deploy", rid,
                     None if d is None
                     else tuple(sorted(d.placement.mapping.items()))))
                rid += 1
        return mappings

    def test_fast_path_matches_traced_path(self, compiled_small,
                                           compiled_medium,
                                           compiled_large):
        fast = self._drive(False, compiled_small, compiled_medium,
                           compiled_large)
        slow = self._drive(True, compiled_small, compiled_medium,
                           compiled_large)
        assert fast == slow

    def test_fast_path_respects_guard_exclusions(self, compiled_small):
        from repro.cluster.cluster import make_cluster
        from repro.runtime.controller import SystemController
        from repro.runtime.guard import DegradedModeGuard, GuardConfig

        controller = SystemController(make_cluster(num_boards=4))
        guard = DegradedModeGuard(GuardConfig(failure_threshold=1))
        controller.attach_guard(guard)
        guard.record_board_failure(0, now=1.0)
        assert 0 in guard.excluded_boards()
        for rid in range(6):
            d = controller.try_deploy(compiled_small, rid, 2.0)
            assert d is not None
            assert 0 not in d.placement.boards


class TestRingArrayMath:
    def test_span_cost_matches_pairwise_sum(self):
        net = RingNetwork(9)
        rng = random.Random(3)
        for _ in range(50):
            members = rng.sample(range(9), rng.randint(1, 6))
            expected = sum(
                net.distance(a, b)
                for i, a in enumerate(members)
                for b in members[i + 1:])
            assert net.span_cost(members) == expected

    def test_peak_segment_flows_matches_scan(self):
        net = RingNetwork(8)
        net.register_flow("a", [0, 1, 2])
        net.register_flow("b", [1, 2, 3])
        net.register_flow("c", [6, 7])
        scan = max(net.flows_on_segment(s) for s in range(8))
        assert net.peak_segment_flows() == scan
        net.release_flow("b")
        scan = max(net.flows_on_segment(s) for s in range(8))
        assert net.peak_segment_flows() == scan

    def test_contention_counts_stay_python_ints(self):
        """np.int64 leaking out of the array math would break JSON
        trace export; the accessors must cast."""
        net = RingNetwork(6)
        net.register_flow("x", [0, 3])
        assert type(net.distance(0, 3)) is int
        assert type(net.span_cost([0, 2, 4])) is int
        assert type(net.flows_on_segment(0)) is int
        assert type(net.peak_segment_flows()) is int


class TestSplitKernelEquivalence:
    """The vectorized ``split_virtual_blocks`` vs the scalar oracle.

    The array kernel must be counter-exact: identical assignments on
    random flow graphs (self-flows included), through the memoized
    adjacency path, and on degenerate single-block apps.
    """

    def _random_app(self, rng: random.Random, n: int,
                    name: str) -> FakeApp:
        flows: dict = {}
        for _ in range(rng.randint(0, 3 * n)):
            src, dst = rng.randrange(n), rng.randrange(n)  # self ok
            flows[(src, dst)] = flows.get((src, dst), 0.0) \
                + rng.choice([1.0, 2.0, 64.0, 1024.0])
        return FakeApp(name=name, num_blocks=n, flows=flows)

    def _random_quotas(self, rng: random.Random,
                       n: int) -> list[tuple[int, int]]:
        boards = rng.sample(range(40), rng.randint(1, min(4, n)))
        quotas, left = [], n
        for i, board in enumerate(boards):
            rest = len(boards) - i - 1
            take = left - rest if rest else left
            cap = rng.randint(1, max(1, take)) if rest else left
            quotas.append((board, cap + rng.randint(0, 2)))
            left -= min(cap, left)
        return quotas

    def test_randomized_flow_graphs_match_scalar(self):
        rng = random.Random(91_000)
        checked = 0
        for trial in range(200):
            n = rng.randint(1, 12)
            app = self._random_app(rng, n, f"s{trial}")
            quotas = self._random_quotas(rng, n)
            if sum(c for _, c in quotas) < n:
                continue
            vec = split_virtual_blocks(app, quotas)
            ref = reference_split_virtual_blocks(app, quotas)
            assert vec == ref, f"trial {trial}: {app.flows} {quotas}"
            checked += 1
        assert checked > 150

    def test_tie_heavy_uniform_flows_match(self):
        """All-equal weights tie every greedy pick; argmax-first must
        reproduce the scalar max()'s first-wins tie-break."""
        rng = random.Random(92_000)
        for trial in range(60):
            n = rng.randint(2, 10)
            flows = {(a, b): 8.0 for a in range(n) for b in range(n)
                     if a != b and rng.random() < 0.5}
            app = FakeApp(name=f"u{trial}", num_blocks=n, flows=flows)
            quotas = self._random_quotas(rng, n)
            if sum(c for _, c in quotas) < n:
                continue
            assert split_virtual_blocks(app, quotas) \
                == reference_split_virtual_blocks(app, quotas)

    def test_single_block_degenerate_app(self):
        app = FakeApp(name="one", num_blocks=1,
                      flows={(0, 0): 99.0})  # self-flow only
        for quotas in ([(5, 1)], [(3, 4)], [(2, 1), (7, 9)]):
            assert split_virtual_blocks(app, quotas) \
                == reference_split_virtual_blocks(app, quotas) \
                == {0: quotas[0][0]}

    def test_memoized_adjacency_path_matches_cold(self):
        """Second call hits every cache layer; the answer must not
        drift from the cold run's."""
        from repro.runtime import policy as policy_mod
        rng = random.Random(93_000)
        app = self._random_app(rng, 9, "memo")
        quotas = [(0, 5), (1, 4)]
        policy_mod._clear_split_caches()
        cold = split_virtual_blocks(app, quotas)
        warm = split_virtual_blocks(app, quotas)
        relabeled = split_virtual_blocks(app, [(6, 5), (2, 4)])
        assert cold == warm
        assert relabeled == {vb: {0: 6, 1: 2}[b]
                             for vb, b in cold.items()}
