"""Tests for TBO̅N daemon-failure handling and seeded fault injection."""

import hashlib
import json

import pytest

from repro.api.pipeline import SessionPipeline
from repro.api.spec import SessionSpec, SpecValidationError
from repro.api.suite import MAX_SPEC_RETRIES, ScenarioSuite
from repro.core.merge import HierarchicalLabelScheme
from repro.core.taskset import TaskMap
from repro.faults import (
    FAILURE_DETECT_S,
    DaemonCrash,
    DaemonStall,
    FaultPlan,
    FaultPlanError,
    LinkFault,
    RetryPolicy,
    Straggler,
    WorkerKill,
    corrupted_checksum,
    payload_checksum,
)
from repro.statbench import STATBenchEmulator, ring_hang_states
from repro.statbench.emulator import DaemonTrees
from repro.tbon.network import DaemonFailure, TBONetwork
from repro.tbon.streaming import StreamConfig, StreamingTBON
from repro.tbon.topology import Topology


def make_reduce(machine, topology, dead):
    """Integer-sum reduction whose ``dead`` daemons crash at t=0."""
    faults = FaultPlan(seed=1).with_crashes(dead).bind(topology.num_daemons)
    net = TBONetwork(topology, machine)
    return net.reduce(lambda rank: rank, lambda ps: sum(ps),
                      lambda p: 100, faults=faults)


class TestSkipPolicy:
    def test_skip_records_missing(self, atlas_small):
        res = make_reduce(atlas_small, Topology.flat(16), dead={3, 7})
        assert res.missing_daemons == [3, 7]
        assert res.payload == sum(range(16)) - 3 - 7

    def test_skip_whole_subtree(self, atlas_small):
        topo = Topology.two_deep(16, 4)   # 4 daemons per CP
        res = make_reduce(atlas_small, topo, dead={0, 1, 2, 3})
        assert res.payload == sum(range(4, 16))
        assert len(res.missing_daemons) == 4

    def test_all_dead_raises(self, atlas_small):
        with pytest.raises(DaemonFailure, match="every daemon"):
            make_reduce(atlas_small, Topology.flat(8), dead=set(range(8)))

    def test_failure_timeout_delays_completion(self, atlas_small):
        topo = Topology.flat(8)
        ok = make_reduce(atlas_small, topo, dead=set())
        degraded = make_reduce(atlas_small, topo, dead={1})
        assert degraded.sim_time >= FAILURE_DETECT_S > ok.sim_time

    def test_network_profile_mentions_missing(self, atlas_small):
        res = make_reduce(atlas_small, Topology.flat(8), dead={2})
        assert "MISSING daemons: [2]" in res.network_profile()


class TestDegradedStatSession:
    def test_stat_merge_survives_daemon_loss(self, bgl_small, bgl_stacks):
        """Losing a daemon loses its tasks' traces but nothing else."""
        tm = TaskMap.block(bgl_small.num_daemons,
                           bgl_small.tasks_per_daemon)
        emulator = STATBenchEmulator(
            tm, HierarchicalLabelScheme(), bgl_stacks,
            ring_hang_states(bgl_small.total_tasks), num_samples=4)

        faults = FaultPlan(seed=1).with_crashes([5]).bind(
            bgl_small.num_daemons)
        net = TBONetwork(Topology.bgl_two_deep(bgl_small.num_daemons),
                         bgl_small)
        forest = emulator.build_forest()
        res = net.reduce(forest.__getitem__, emulator.merge_filter(),
                         DaemonTrees.serialized_bytes,
                         DaemonTrees.node_count, faults=faults)
        assert res.missing_daemons == [5]
        final = HierarchicalLabelScheme().finalize(
            res.payload.tree_3d, tm)
        observed = set()
        for _, label in final.edges():
            observed.update(label.to_ranks().tolist())
        lost = set(tm.ranks_of(5).tolist())
        # no lost rank can appear anywhere ...
        assert not (observed & lost)
        # ... and every other rank is still covered
        assert observed == set(range(bgl_small.total_tasks)) - lost


def sum_reduce(machine, topology, faults=None, **kwargs):
    """Batch integer-sum reduction with an optional bound injector."""
    net = TBONetwork(topology, machine)
    return net.reduce(lambda d: d, lambda ps: sum(ps), lambda p: 100,
                      faults=faults, **kwargs)


def sum_stream(machine, topology, faults=None, config=None, **kwargs):
    """Streamed integer-sum reduction with an optional bound injector."""
    net = StreamingTBON(topology, machine)
    return net.stream(lambda d: d, lambda ps: sum(ps), lambda p: 100,
                      faults=faults, config=config or StreamConfig(),
                      **kwargs)


class TestFaultPlanDeclarative:
    def plan(self):
        return FaultPlan(
            seed=7,
            crashes=(DaemonCrash(rank=3, time=1.5),),
            stalls=(DaemonStall(rank=1, duration=2.0),),
            links=(LinkFault(drop_p=0.1, corrupt_p=0.05),),
            stragglers=(Straggler(fraction=0.25, dilation=3.0),),
            worker_kills=(WorkerKill(attempts=2),),
            retry=RetryPolicy(max_retries=3, timeout_s=2.0))

    def test_json_roundtrip_is_identity(self):
        plan = self.plan()
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_unknown_keys_rejected(self):
        data = self.plan().to_dict()
        data["surprise"] = 1
        with pytest.raises(FaultPlanError, match="surprise"):
            FaultPlan.from_dict(data)

    def test_unknown_entry_keys_rejected(self):
        data = self.plan().to_dict()
        data["crashes"][0]["color"] = "red"
        with pytest.raises(FaultPlanError, match="color"):
            FaultPlan.from_dict(data)

    def test_validation_rejects_bad_probability(self):
        with pytest.raises(FaultPlanError):
            LinkFault(drop_p=1.5)

    def test_validation_rejects_bad_retry(self):
        with pytest.raises(FaultPlanError):
            RetryPolicy(max_retries=-1)

    def test_empty_and_with_crashes(self):
        assert FaultPlan().empty
        grown = FaultPlan().with_crashes([2, 2, 5])
        assert not grown.empty
        assert sorted(c.rank for c in grown.crashes) == [2, 5]

    def test_spec_embeds_and_roundtrips(self):
        spec = SessionSpec(machine="bgl", daemons=4, num_samples=2,
                           faults=self.plan())
        again = SessionSpec.from_dict(spec.to_dict())
        assert again.faults == self.plan()

    def test_spec_rejects_non_plan(self):
        with pytest.raises(SpecValidationError, match="faults"):
            SessionSpec(machine="bgl", daemons=4, faults="crash please")

    def test_checksum_detects_corruption(self):
        checksum = payload_checksum({"trees": [1, 2, 3]})
        assert corrupted_checksum(checksum) != checksum


class TestRetryPolicyMath:
    def test_absorb_within_first_window(self):
        policy = RetryPolicy(max_retries=2, timeout_s=5.0)
        when, spent, ok = policy.absorb(0.0, 3.0)
        assert (when, spent, ok) == (3.0, 0, True)

    def test_absorb_in_later_window_charges_backoff(self):
        policy = RetryPolicy(max_retries=2, timeout_s=5.0,
                             backoff_base_s=0.5, backoff_mult=2.0)
        # second window opens at 5.0 + 0.5 backoff
        when, spent, ok = policy.absorb(0.0, 5.2)
        assert ok and spent == 1
        assert when == pytest.approx(5.5)

    def test_exhaustion_lands_at_budget_end(self):
        policy = RetryPolicy(max_retries=1, timeout_s=2.0,
                             backoff_base_s=0.5)
        when, spent, ok = policy.absorb(0.0, 100.0)
        assert not ok and spent == 1
        assert when == pytest.approx(2.0 + 0.5 + 2.0)


class TestBatchInjection:
    def test_transient_stall_absorbed(self, atlas_small):
        plan = FaultPlan(seed=1, stalls=(DaemonStall(rank=2,
                                                     duration=3.0),))
        res = sum_reduce(atlas_small, Topology.flat(8),
                         faults=plan.bind(8))
        assert res.payload == sum(range(8))
        assert res.missing_daemons == []
        assert res.sim_time >= 3.0

    def test_retry_exhaustion_degrades(self, atlas_small):
        plan = FaultPlan(seed=1, stalls=(DaemonStall(rank=2,
                                                     duration=100.0),))
        res = sum_reduce(atlas_small, Topology.flat(8),
                         faults=plan.bind(8))
        assert res.missing_daemons == [2]
        assert res.payload == sum(range(8)) - 2
        assert res.retries == plan.retry.max_retries
        assert res.missing_subtrees == 1

    def test_crash_behaves_like_dead_daemon(self, atlas_small):
        plan = FaultPlan(seed=1, crashes=(DaemonCrash(rank=5),))
        res = sum_reduce(atlas_small, Topology.flat(8),
                         faults=plan.bind(8))
        assert res.missing_daemons == [5]
        assert res.payload == sum(range(8)) - 5

    def test_certain_corruption_loses_targeted_subtree(self, atlas_small):
        topo = Topology.two_deep(8, 2)
        target = topo.root.children[0].node_id
        plan = FaultPlan(seed=1, links=(LinkFault(corrupt_p=1.0,
                                                  node_id=target),))
        res = sum_reduce(atlas_small, topo, faults=plan.bind(8))
        assert res.missing_daemons == [0, 1, 2, 3]
        assert res.payload == sum(range(4, 8))
        # every link into the target: budget+1 transmissions, all caught
        retries = plan.retry.max_retries
        assert res.corrupt_detected == 4 * (retries + 1)
        assert "corrupt" in res.network_profile()

    def test_drops_are_deterministic_per_seed(self, atlas_small):
        plan = FaultPlan(seed=42, links=(LinkFault(drop_p=0.4),))
        runs = [sum_reduce(atlas_small, Topology.two_deep(16, 4),
                           faults=plan.bind(16))
                for _ in range(2)]
        assert runs[0].payload == runs[1].payload
        assert runs[0].sim_time == runs[1].sim_time
        assert runs[0].missing_daemons == runs[1].missing_daemons
        assert runs[0].dropped_messages == runs[1].dropped_messages
        assert runs[0].dropped_messages > 0

    def test_empty_plan_is_bit_identical(self, atlas_small):
        topo = Topology.two_deep(16, 4)
        plain = sum_reduce(atlas_small, topo)
        faulted = sum_reduce(atlas_small, topo,
                             faults=FaultPlan(seed=9).bind(16))
        assert faulted.payload == plain.payload
        assert faulted.sim_time == plain.sim_time
        assert faulted.messages == plain.messages
        assert faulted.bytes_total == plain.bytes_total


class TestStreamingInjection:
    def test_transient_stall_recovers(self, atlas_small):
        plan = FaultPlan(seed=1, stalls=(DaemonStall(rank=2,
                                                     duration=3.0),))
        res = sum_stream(atlas_small, Topology.flat(8),
                         faults=plan.bind(8),
                         config=StreamConfig(seed=3)).run()
        assert res.payload == sum(range(8))
        assert res.missing_daemons == []

    def test_death_during_snapshot_never_double_counts(self, atlas_small):
        plan = FaultPlan(seed=1, crashes=(DaemonCrash(rank=3),))
        reduction = sum_stream(atlas_small, Topology.balanced(16, 2),
                               faults=plan.bind(16),
                               config=StreamConfig(seed=5))
        # probe while the death is still being detected
        for t in (0.001, 0.01, 0.1, 1.0):
            snap = reduction.run_until(t).snapshot()
            assert len(set(snap.ranks)) == len(snap.ranks)
            assert 3 not in snap.ranks
            if not snap.empty:
                assert snap.payload == sum(snap.ranks)
        res = reduction.run()
        assert res.missing_daemons == [3]
        assert res.payload == sum(range(16)) - 3

    def test_retry_exhaustion_degrades(self, atlas_small):
        plan = FaultPlan(seed=1, stalls=(DaemonStall(rank=6,
                                                     duration=100.0),))
        res = sum_stream(atlas_small, Topology.flat(8),
                         faults=plan.bind(8),
                         config=StreamConfig(seed=3)).run()
        assert res.missing_daemons == [6]
        assert res.payload == sum(range(8)) - 6
        assert res.missing_subtrees == 1

    def test_corruption_detected_and_retransmitted(self, atlas_small):
        plan = FaultPlan(seed=11, links=(LinkFault(corrupt_p=0.3),))
        res = sum_stream(atlas_small, Topology.flat(8),
                         faults=plan.bind(8),
                         config=StreamConfig(seed=3)).run()
        # a 0.3 corruption rate over 8 links retries but never exhausts
        # the default 2-retry budget in this seeded draw
        assert res.corrupt_detected > 0
        assert res.payload == sum(range(8))
        assert res.retries >= res.corrupt_detected

    def test_empty_plan_is_bit_identical(self, atlas_small):
        topo = Topology.balanced(16, 2)
        config = StreamConfig(seed=7)
        plain = sum_stream(atlas_small, topo, config=config).run()
        faulted = sum_stream(atlas_small, topo,
                             faults=FaultPlan(seed=9).bind(16),
                             config=config).run()
        assert faulted.payload == plain.payload
        assert faulted.sim_time == plain.sim_time
        assert faulted.messages == plain.messages


class TestSuiteWorkerKill:
    # a single-spec suite always runs inline, so pair the faulted spec
    # with a healthy one to exercise the real pool path

    def test_killed_worker_is_retried(self):
        killed = SessionSpec(
            machine="bgl", daemons=4, num_samples=2, name="killed",
            faults=FaultPlan(seed=1,
                             worker_kills=(WorkerKill(attempts=1),)))
        healthy = SessionSpec(machine="bgl", daemons=4, num_samples=2,
                              name="healthy")
        report = ScenarioSuite([killed, healthy]).run(max_workers=2)
        outcome = report.outcomes[0]
        assert outcome.ok
        assert outcome.attempts == 2
        assert report.outcomes[1].ok

    def test_exhausted_retries_capture_traceback(self):
        doomed = SessionSpec(
            machine="bgl", daemons=4, num_samples=2, name="doomed",
            faults=FaultPlan(seed=1,
                             worker_kills=(WorkerKill(attempts=5),)))
        healthy = SessionSpec(machine="bgl", daemons=4, num_samples=2,
                              name="healthy")
        report = ScenarioSuite([doomed, healthy]).run(max_workers=2)
        outcome = report.outcomes[0]
        assert not outcome.ok
        assert outcome.attempts == MAX_SPEC_RETRIES + 1
        assert outcome.error is not None
        assert outcome.traceback is not None
        assert report.outcomes[1].ok

    def test_inline_run_ignores_worker_kills(self):
        spec = SessionSpec(
            machine="bgl", daemons=4, num_samples=2,
            faults=FaultPlan(seed=1,
                             worker_kills=(WorkerKill(attempts=5),)))
        report = ScenarioSuite([spec]).run(parallel=False)
        assert report.outcomes[0].ok
        assert report.outcomes[0].attempts == 1


class TestChaosSmoke:
    def test_quick_sweep_holds_invariants(self):
        from repro.faults.chaos import run_chaos

        report = run_chaos(plans=50, daemons=8, samples=2, seed=208_000)
        assert report.ok, report.failures
        assert len(report.cases) == 50
        assert report.survived + report.degraded == 50
        # the sweep is itself deterministic
        again = run_chaos(plans=50, daemons=8, samples=2, seed=208_000)
        first = report.to_dict()
        second = again.to_dict()
        first.pop("wall_seconds")
        second.pop("wall_seconds")
        assert first == second


def _canonical(value):
    """JSON-ready form of a chaos fingerprint (floats bit-exact)."""
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, str):
        return value
    return int(value)


class TestGoldenFaultReplay:
    """The first 48 chaos plans cover all 12 topology x scheme x
    batch/stream combinations; their replay fingerprints (simulated time,
    missing ranks, messages, retries, drops, corruptions, lost subtrees,
    injector counts, absorbed faults) are pinned bit for bit."""

    PLANS = 48
    GOLDEN = ("22b1faa6190f71e266b2789e537fdabf"
              "46f20f691157dadad21bdab70f5e02f1")

    def test_chaos_fingerprints_match_golden_digest(self):
        from repro.faults import chaos

        seed, daemons = 208_000, 8
        machine, schemes, combos = chaos._sweep_setup(daemons, 2, seed)
        assert len(combos) == 12
        prints = []
        for i in range(self.PLANS):
            _, topo, scheme_name, mode = combos[i % len(combos)]
            forest, merge_fn = schemes[scheme_name]
            _, plan = chaos._draw_plan(seed, i, daemons)
            result, injector, _ = chaos._case_outcome(
                mode, topo, machine, plan, seed, forest, merge_fn, daemons)
            prints.append(chaos._fingerprint(result, injector))
        digest = hashlib.sha256(
            json.dumps(_canonical(prints)).encode()).hexdigest()
        assert digest == self.GOLDEN


ALIAS_SPEC = {"machine": "atlas", "daemons": 16, "num_samples": 3,
              "seed": 21}


class TestDeadDaemonsAlias:
    """A legacy ``"dead_daemons"`` list is parsed into t=0 crashes."""

    def plan_spec(self):
        return SessionSpec.from_dict(ALIAS_SPEC).replace(
            faults=FaultPlan(seed=21).with_crashes([3, 5]))

    def alias_dict(self):
        return dict(ALIAS_SPEC, dead_daemons=[5, 3])

    def test_spec_json_loads_to_crash_plan(self):
        spec = SessionSpec.from_json(json.dumps(self.alias_dict()))
        assert spec == self.plan_spec()
        assert "dead_daemons" not in spec.to_dict()

    def test_empty_alias_adds_no_plan(self):
        spec = SessionSpec.from_dict(dict(ALIAS_SPEC, dead_daemons=[]))
        assert spec.faults is None

    def test_alias_merges_into_explicit_plan(self):
        data = self.alias_dict()
        data["faults"] = FaultPlan(
            seed=4, stalls=(DaemonStall(rank=1),)).to_dict()
        spec = SessionSpec.from_dict(data)
        assert spec.faults.seed == 4
        assert spec.faults.stalls == (DaemonStall(rank=1),)
        assert [(c.rank, c.time) for c in spec.faults.crashes] == \
            [(3, 0.0), (5, 0.0)]

    @pytest.mark.parametrize("dead", [[-1], "35", [3.0], [True], 3])
    def test_invalid_alias_rejected(self, dead):
        with pytest.raises(SpecValidationError, match="dead_daemons"):
            SessionSpec.from_dict(dict(ALIAS_SPEC, dead_daemons=dead))

    def test_v2_archive_with_alias_replays_identically(self, tmp_path):
        from repro.core.session import load_session, save_session

        explicit = self.plan_spec()
        live = explicit.run().result
        save_session(live, tmp_path, spec=explicit)
        # Rewrite the embedded spec the way archives saved before fault
        # plans existed carry it: a dead_daemons list, no plan.
        meta_path = tmp_path / "session.json"
        meta = json.loads(meta_path.read_text())
        meta["spec"]["faults"] = None
        meta["spec"]["dead_daemons"] = [3, 5]
        meta_path.write_text(json.dumps(meta))
        archive = load_session(tmp_path)
        assert archive.format_version == 2
        assert archive.spec == explicit
        replay = archive.spec.run().result
        assert replay.timings == live.timings
        assert [c.ranks for c in replay.classes] == \
            [c.ranks for c in live.classes]
        assert replay.degradation == live.degradation

    @pytest.mark.parametrize("stream", [False, True])
    def test_alias_and_plan_sessions_agree(self, stream):
        results = []
        for spec in (SessionSpec.from_dict(self.alias_dict()),
                     self.plan_spec()):
            pipeline = SessionPipeline.from_spec(spec)
            pipeline.ctx.stream = stream
            results.append(pipeline.run())
        alias, plan = results
        assert alias.timings == plan.timings
        assert alias.merge.missing_daemons == plan.merge.missing_daemons \
            == [3, 5]
        assert alias.degradation == plan.degradation
        assert alias.degradation.faults_injected == 2
        # crash detection is charged once, in parallel, in either mode
        assert FAILURE_DETECT_S <= plan.timings["merge"] \
            < FAILURE_DETECT_S + 0.1
