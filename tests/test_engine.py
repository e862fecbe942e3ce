"""Execution loop: determinism, fault handling, transcript shape."""

from fractions import Fraction

import pytest

from permitsim.analysis import verify_transcript_invariants
from permitsim.blocktree import BlockIndex
from permitsim.engine import (Execution, ExecutionConfig, Grant, ProcessorSpec,
                              Transcript, run_execution)
from permitsim.errors import (ConfigError, ExecutionFault,
                             TranscriptFormatError)
from permitsim.messages import PAYLOAD, Message, PublicKey, make_block
from permitsim.permitter import PermitRequest, StakePermitter, WorkPermitter
from permitsim.protocols import (HonestStakeStrategy, HonestWorkStrategy,
                                 KDeepRule, ObserverStrategy, Strategy,
                                 _DensityTracker, _KDeepTracker)
from permitsim.resource_pool import SIZED, ConstantBalancePool, ScriptedPool
from permitsim.scenarios import SCENARIOS

from conftest import (StandingStaker, confirmed_series, stake_config,
                      transcript_lines, work_config)
from test_transcript_digests import CONFIGS


class TestDeterminism:
    def test_same_config_same_bytes(self):
        a = run_execution(work_config(duration=120, seed=9))
        b = run_execution(work_config(duration=120, seed=9))
        assert a.to_bytes() == b.to_bytes()

    def test_seed_changes_the_run(self):
        a = run_execution(work_config(duration=120, seed=9))
        b = run_execution(work_config(duration=120, seed=10))
        assert a.to_bytes() != b.to_bytes()

    def test_save_load_round_trip(self, tmp_path):
        t = run_execution(work_config(duration=80))
        path = tmp_path / "run.transcript"
        t.save(path)
        back = Transcript.load(path)
        assert back.to_bytes() == t.to_bytes()
        assert back.roster_ids == t.roster_ids
        assert back.duration == t.duration

    @pytest.mark.parametrize("cut,problem", [
        (lambda ls: ls[:-1] + ['{"type":"end","broadcasts":0}'],
         r"line \d+: the end record counts 0 broadcasts"),
        (lambda ls: ls + [ls[1]], r"line \d+: record after the end record"),
        (lambda ls: ls[1:], r"line 1: the first record is .*, not the header"),
        (lambda ls: ls[:1] + [l for l in ls[1:] if '"broadcast"' in l][1:]
         + ls[-1:], r"line 2: block parent \w+ is not broadcast before it"),
    ])
    def test_malformed_lines_are_refused(self, cut, problem):
        lines = transcript_lines(run_execution(work_config(duration=80)))
        with pytest.raises(TranscriptFormatError, match=problem):
            Transcript.from_lines(cut(lines))

    def test_stake_lane_is_deterministic_too(self):
        a = run_execution(stake_config(duration=100))
        b = run_execution(stake_config(duration=100))
        assert a.to_bytes() == b.to_bytes()

    def test_stakers_ask_inside_the_permitters_window(self):
        # the stakers are built with no window of their own: they read the
        # permitter's, so a narrow window keeps producing blocks all run long
        cfg = stake_config(duration=300, lookahead=3)
        cfg.processors = [ProcessorSpec(id=p.id, keys=p.keys,
                                        strategy=HonestStakeStrategy)
                          for p in cfg.processors]
        t = run_execution(cfg)
        assert any(g.slot > 10 for g in t.grants)
        assert any(slot > 10 for slot, _, _ in t.broadcasts)


@pytest.fixture(scope="module")
def transcript():
    return run_execution(work_config(duration=200, seed=3))


class TestTranscriptQueries:
    def test_no_self_delivery(self, transcript):
        sent_by = {mid: proc for _, proc, mid in transcript.broadcasts}
        for _, receiver, mid in transcript.deliveries:
            assert sent_by[mid] != receiver

    def test_uniform_delay_lands_exactly_delta_later(self, transcript):
        sent_at = {mid: slot for slot, _, mid in transcript.broadcasts}
        for slot, _, mid in transcript.deliveries:
            assert slot == sent_at[mid] + 1   # work_config uses delay=1

    def test_confirmations_are_change_points(self, transcript):
        last: dict[str, tuple] = {}
        for slot, proc, tip, length in transcript.confirmations:
            assert last.get(proc) != (tip, length)
            last[proc] = (tip, length)

    def test_confirmed_series_is_per_slot(self, transcript):
        for proc in transcript.roster_ids:
            series = confirmed_series(transcript, proc)
            assert len(series) == transcript.duration
            lengths = [n for _, n in series]
            assert lengths == sorted(lengths)  # honest run never rolls back
            assert transcript.last_confirmed(proc) == series[-1]
        assert transcript.last_confirmed("nobody") == (None, 0)

    def test_grants_carry_the_request_shape(self, transcript):
        assert transcript.grants, "a 200-slot run at rate 1/10 grants blocks"
        for g in transcript.grants:
            assert type(g) is Grant and g._fields == (
                "slot", "proc", "key", "granted", "leader_slot", "m_digest",
                "candidate")
            assert type(g.key) is PublicKey and type(g.granted) is tuple
            assert g.granted and g.leader_slot is None
            assert g.candidate in g.granted

    def test_delivery_map_keeps_first_arrival(self, transcript):
        first: dict[tuple[str, str], int] = {}
        for slot, receiver, mid in transcript.deliveries:
            first.setdefault((receiver, mid), slot)
        dm = transcript.delivery_map()
        for pair, slot in first.items():
            assert dm[pair] == slot


@pytest.mark.parametrize("build", CONFIGS, ids=lambda b: b.__name__)
def test_the_loader_builds_the_engines_grant_records(build):
    t = run_execution(build())
    loaded = Transcript.from_lines(t.to_bytes().decode().splitlines())
    assert loaded.grants == t.grants
    assert ([tuple(map(type, g)) for g in loaded.grants]
            == [tuple(map(type, g)) for g in t.grants])


def test_a_runs_records_are_flat_tuples(monkeypatch):
    """Grant records, permit responses and leader grants carry no
    per-instance dict, and a pair's carriers are a tuple of ids."""
    runs, responses = [], []
    grant = Execution._grant

    def recording(self, slot, rt, req, resp):
        runs.append(self)
        responses.append(resp)
        grant(self, slot, rt, req, resp)

    monkeypatch.setattr(Execution, "_grant", recording)
    t = run_execution(stake_config())
    run = runs[0]
    assert all(r is run for r in runs)
    leader_grants = [lg for rt in run.runtimes.values()
                     for lg in rt.leader_grants.values()]
    assert t.grants and leader_grants and run.carriers
    for record in (*t.grants, *responses, *leader_grants):
        assert isinstance(record, tuple) and not hasattr(record, "__dict__")
    assert all(type(ids) is tuple for ids in run.carriers.values())


class TestConfigValidation:
    def test_duplicate_processor_ids(self):
        key = PublicKey("p0", 0)
        dup = ProcessorSpec(id="p0", keys=(PublicKey("px", 0),),
                            strategy=HonestWorkStrategy)
        cfg = work_config(extra_specs=(dup,))
        with pytest.raises(ConfigError, match="unique"):
            run_execution(cfg)

    def test_key_group_split_across_processors(self):
        crook = ProcessorSpec(id="crook", keys=(PublicKey("p0", 1),),
                              strategy=HonestWorkStrategy)
        cfg = work_config(extra_specs=(crook,))
        with pytest.raises(ConfigError, match="claimed by both"):
            run_execution(cfg)

    def test_pool_balance_for_unowned_group(self):
        balances = {PublicKey(f"p{i}", 0): Fraction(1) for i in range(3)}
        balances[PublicKey("ghost", 0)] = Fraction(1)
        cfg = work_config(balances=balances)
        cfg.processors = cfg.processors[:3]
        with pytest.raises(ConfigError, match="ghost"):
            run_execution(cfg)

    @pytest.mark.parametrize("segments", [
        [(1, {"p0": 1, "x": 5})],
        # x holds 5 of 6 units until slot 10, then nothing
        [(1, {"p0": 1, "x": 5}), (10, {"p0": 1, "x": 0})],
    ], ids=["one-segment", "zero-in-the-last-segment"])
    def test_scripted_pool_balance_for_unowned_group(self, segments):
        cfg = work_config(processors=1)
        cfg.pool = ScriptedPool(segments)
        with pytest.raises(ConfigError, match="'x'"):
            run_execution(cfg)

    @pytest.mark.parametrize("field,value", [
        ("duration", 0), ("delta", 0), ("epsilon", 0.0), ("epsilon", 1.0),
    ])
    def test_scalar_bounds(self, field, value):
        # a zero duration is refused by the schedule that owns it
        with pytest.raises(ConfigError):
            run_execution(work_config(**{field: value}))

    def test_strategy_factory_must_return_a_strategy(self):
        cfg = work_config()
        cfg.processors[0] = ProcessorSpec(
            id=cfg.processors[0].id, keys=cfg.processors[0].keys,
            strategy=dict)
        with pytest.raises(ConfigError, match="factory"):
            run_execution(cfg)

    def test_a_standing_staker_is_refused(self):
        # the stake permitter answers one target at one slot and draws
        # nothing to hand back on the slots a standing strategy sits out
        cfg = stake_config(duration=30)
        cfg.processors = [ProcessorSpec(id=p.id, keys=p.keys,
                                        strategy=StandingStaker)
                          for p in cfg.processors]
        with pytest.raises(ConfigError, match="'s0': a standing strategy that "
                           "requests needs a permitter that can draw"):
            run_execution(cfg)


class _ForgedBlockStrategy(Strategy):
    """Broadcasts a block it was never granted."""

    def plan_broadcasts(self, ctx):
        if ctx.slot == 3:
            forged = make_block(ctx.keys[0], ctx.view.longest_tip,
                                payload="forged")
            return [forged]
        return []


class _UnownedSignerStrategy(Strategy):
    """Signs with a key belonging to somebody else."""

    def plan_broadcasts(self, ctx):
        if ctx.slot == 3:
            other = PublicKey("p1", 0)
            return [make_block(other, ctx.view.longest_tip, payload="x")]
        return []


class _EmbedUnreceivedStrategy(Strategy):
    """Vouches in its own block for a pair it never signed or received."""

    def plan_broadcasts(self, ctx):
        if ctx.slot == 3:
            pair = (PublicKey("p1", 0), "0" * 64)
            return [make_block(ctx.keys[0], ctx.view.longest_tip,
                               payload="x", embedded=(pair,))]
        return []


class _EmbedReceivedStrategy(HonestWorkStrategy):
    """Mines honestly, vouching in each candidate for the last message it
    was delivered."""

    def __init__(self):
        super().__init__()
        self._vouch = ()

    def on_receive(self, ctx):
        super().on_receive(ctx)
        if ctx.delivered:
            self._vouch = (ctx.delivered[-1].pair(),)

    def plan_requests(self, ctx):
        return [PermitRequest(key=key, view=ctx.view, candidate=make_block(
                    key, parent=ctx.view.longest_tip, embedded=self._vouch))
                for key in ctx.keys]


def _relay_config(strategy_cls):
    """p1 alone holds balance and wins every request: its first block
    extends genesis, is broadcast at slot 2 and is due at p0, a processor
    of no balance, at slot 4."""
    p0 = ProcessorSpec(id="p0", keys=(PublicKey("p0", 0),),
                       strategy=strategy_cls)
    return work_config(duration=10, rate=1, delay=2,
                       balances={PublicKey("p1", 0): 1}, extra_specs=(p0,))


class _EarlyRelayStrategy(Strategy):
    """Rebuilds p1's first block by its content and rebroadcasts it at
    ``relay_at``."""

    config = staticmethod(_relay_config)
    relay_at = 3  # one slot before the block is due here

    def plan_broadcasts(self, ctx):
        if ctx.slot != self.relay_at:
            return []
        return [make_block(PublicKey("p1", 0), ctx.view.index.genesis_id)]


class _DueRelayStrategy(_EarlyRelayStrategy):
    relay_at = 4


class _EarlyEmbedStrategy(_EarlyRelayStrategy):
    """Vouches in a block of its own for p1's first block before that
    block is due here."""

    def plan_broadcasts(self, ctx):
        return [make_block(ctx.keys[0], ctx.view.longest_tip, payload="x",
                           embedded=(relayed.pair(),))
                for relayed in super().plan_broadcasts(ctx)]


class _ViewWriteStrategy(Strategy):
    """Writes a block of its own making into its view, then broadcasts it
    as if it held it."""

    signer = None  # None: its own key

    def plan_broadcasts(self, ctx):
        if ctx.slot == 3:
            block = make_block(self.signer or ctx.keys[0],
                               ctx.view.longest_tip, payload="written")
            ctx.view.add(block)
            return [block]
        return []


class _ViewWriteUnownedStrategy(_ViewWriteStrategy):
    signer = PublicKey("p1", 0)


class _RelayStrategy(Strategy):
    """Rebroadcasts every delivered message two slots after it arrived."""

    def __init__(self):
        self._due: dict[int, list[Message]] = {}

    def on_receive(self, ctx):
        if ctx.delivered:
            self._due.setdefault(ctx.slot + 2, []).extend(ctx.delivered)

    def plan_broadcasts(self, ctx):
        return self._due.pop(ctx.slot, [])


class _GreedyRequestStrategy(Strategy):
    """Files two single-budget requests for the same key in one slot."""

    def plan_requests(self, ctx):
        cand = make_block(ctx.keys[0], ctx.view.longest_tip, payload="c")
        req = PermitRequest(ctx.keys[0], ctx.view, candidate=cand)
        return [req, req]


class _UnownedKeyRequestStrategy(Strategy):
    def plan_requests(self, ctx):
        foreign = PublicKey("p1", 0)
        cand = make_block(foreign, ctx.view.longest_tip, payload="c")
        return [PermitRequest(foreign, ctx.view, candidate=cand)]


class _MisstampedLeaderStrategy(HonestStakeStrategy):
    """Stamps its leader block with a slot past the end of the run."""

    def plan_broadcasts(self, ctx):
        key = self._slots.take(ctx.slot)
        if key is None:
            return []
        return [make_block(key, parent=ctx.view.longest_tip,
                           timestamp=ctx.duration + ctx.slot)]


class _LeaderPayloadStrategy(HonestStakeStrategy):
    """Spends a leadership on a payload message instead of a block."""

    def plan_broadcasts(self, ctx):
        key = self._slots.take(ctx.slot)
        if key is None:
            return []
        return [Message(signer=key, kind=PAYLOAD, timestamp=ctx.slot)]


def _single_swap_config(strategy_cls):
    cfg = work_config(duration=10)
    first = cfg.processors[0]
    cfg.processors[0] = ProcessorSpec(id=first.id, keys=first.keys,
                                      strategy=strategy_cls)
    return cfg


class TestFaults:
    def test_unpermitted_block_faults(self):
        with pytest.raises(ExecutionFault) as exc:
            run_execution(_single_swap_config(_ForgedBlockStrategy))
        assert exc.value.slot == 3
        assert "not permitted" in str(exc.value)

    def test_unowned_signer_faults(self):
        with pytest.raises(ExecutionFault, match="unowned key"):
            run_execution(_single_swap_config(_UnownedSignerStrategy))

    @pytest.mark.parametrize("strategy_cls,problem", [
        (_UnownedSignerStrategy,
         "signed by unowned key p1/0 was never received"),
        (_EmbedUnreceivedStrategy,
         "embedded pair under p1/0 was never signed or received"),
        # the only carrier is queued for this processor, not yet due
        (_EarlyRelayStrategy,
         "signed by unowned key p1/0 was never received"),
        (_EarlyEmbedStrategy,
         "embedded pair under p1/0 was never signed or received"),
    ])
    def test_a_foreign_pair_must_have_been_received(self, strategy_cls,
                                                    problem):
        build = getattr(strategy_cls, "config", _single_swap_config)
        with pytest.raises(ExecutionFault, match=problem) as exc:
            run_execution(build(strategy_cls))
        assert exc.value.slot == 3

    def test_relaying_from_the_due_slot_on_is_accepted(self):
        t = run_execution(_relay_config(_DueRelayStrategy))
        (relayed,) = [(slot, mid) for slot, proc, mid in t.broadcasts
                      if proc == "p0"]
        first = next(mid for _, proc, mid in t.broadcasts if proc == "p1")
        assert relayed == (4, first)
        assert ("p0", first) in t.delivery_map()
        assert verify_transcript_invariants(t) == []

    def test_embedding_a_received_pair_is_accepted(self):
        cfg = work_config(duration=60)
        cfg.processors = [ProcessorSpec(id=p.id, keys=p.keys,
                                        strategy=_EmbedReceivedStrategy)
                          for p in cfg.processors]
        t = run_execution(cfg)
        vouching = [t.store[mid] for _, _, mid in t.broadcasts
                    if t.store[mid].embedded]
        assert vouching
        assert all(key.owner != msg.signer.owner
                   for msg in vouching for key, _ in msg.embedded)

    @pytest.mark.parametrize("strategy_cls,problem", [
        (_ViewWriteStrategy, "not permitted"),
        (_ViewWriteUnownedStrategy, "unowned key p1/0 was never received"),
    ])
    def test_writing_into_the_view_grants_nothing(self, strategy_cls, problem):
        with pytest.raises(ExecutionFault, match=problem) as exc:
            run_execution(_single_swap_config(strategy_cls))
        assert exc.value.slot == 3

    def test_single_budget_allows_one_request_per_key(self):
        with pytest.raises(ExecutionFault, match="two requests"):
            run_execution(_single_swap_config(_GreedyRequestStrategy))

    def test_request_under_unowned_key_faults(self):
        with pytest.raises(ExecutionFault, match="unowned key"):
            run_execution(_single_swap_config(_UnownedKeyRequestStrategy))

    @pytest.mark.parametrize("strategy_cls", [_MisstampedLeaderStrategy,
                                              _LeaderPayloadStrategy])
    def test_leader_grant_covers_only_its_slot_and_blocks(self, strategy_cls):
        honest = run_execution(stake_config(duration=60))
        cfg = stake_config(duration=60)
        cfg.processors = [ProcessorSpec(
            id=p.id, keys=p.keys,
            strategy=strategy_cls)
            for p in cfg.processors]
        with pytest.raises(ExecutionFault, match="not permitted") as exc:
            run_execution(cfg)
        # the same draws: the first leadership is spent at the honest run's
        # first broadcast slot
        assert exc.value.slot == honest.broadcasts[0][0]

    def test_fault_names_the_culprit(self):
        cfg = _single_swap_config(_ForgedBlockStrategy)
        with pytest.raises(ExecutionFault) as exc:
            run_execution(cfg)
        assert exc.value.processor == cfg.processors[0].id


class TestObservers:
    def test_keyless_observer_tracks_the_chain(self):
        watcher = ProcessorSpec(id="watch", keys=(), strategy=ObserverStrategy)
        t = run_execution(work_config(duration=150, extra_specs=(watcher,)))
        series = confirmed_series(t, "watch")
        assert series[-1][1] > 1
        # the observer only ever listens
        assert all(proc != "watch" for _, proc, _ in t.broadcasts)
        assert all(g.proc != "watch" for g in t.grants)

    def test_observer_lags_producers_by_the_delay(self):
        watcher = ProcessorSpec(id="watch", keys=(), strategy=ObserverStrategy)
        t = run_execution(work_config(duration=150, extra_specs=(watcher,)))
        final = {p: confirmed_series(t, p)[-1][1] for p in t.roster_ids}
        assert max(final.values()) - final["watch"] <= 1

    def test_relayed_messages_keep_their_delivery_slot(self):
        relay = ProcessorSpec(id="relay", keys=(), strategy=_RelayStrategy)
        t = run_execution(work_config(duration=60, rate=1,
                                      extra_specs=(relay,)))
        relayed = {mid: slot for slot, proc, mid in t.broadcasts
                   if proc == "relay"}
        assert relayed
        dm = t.delivery_map()
        for slot, receiver, mid in t.deliveries:
            if receiver == "relay" and mid in relayed:
                assert dm[("relay", mid)] == slot == relayed[mid] - 2
        assert verify_transcript_invariants(t) == []


def _density_config(seed):
    """The density-certificate scenario's run at its defaults: an honest
    and a withholding staker and an observer."""
    scenario = SCENARIOS["stake_density_certificates"]
    params = scenario.resolve_params({})
    return scenario._config(params, seed, scenario.plan(params))


class TestPerMessageCosts:
    def test_a_message_is_digested_and_indexed_once(self, monkeypatch):
        """Once per broadcast message, not once per processor holding it."""
        digested, indexed = [], []
        body_digest, index_add = Message.body_digest, BlockIndex.add

        def counted_digest(msg):
            digested.append(msg.id)
            return body_digest(msg)

        def counted_add(index, block):
            indexed.append(block.id)
            return index_add(index, block)

        monkeypatch.setattr(Message, "body_digest", counted_digest)
        monkeypatch.setattr(BlockIndex, "add", counted_add)
        t = run_execution(stake_config())
        broadcast = [mid for _, _, mid in t.broadcasts]
        assert len(set(broadcast)) == len(broadcast) > 20
        assert len(t.deliveries) >= len(broadcast)  # every other holder
        assert sorted(digested) == sorted(indexed) == sorted(broadcast)

    @pytest.mark.parametrize("build", [
        stake_config,
        lambda: _density_config(seed=1),
    ], ids=["k_deep", "density"])
    def test_confirmations_are_read_where_a_view_activated_a_block(
            self, monkeypatch, build):
        """A tracker's answer changes only when its view activates a block,
        so ``current()`` is read at slot 1 and then only at slots where
        the processor's view activated one."""
        at = [0]
        activated, read = set(), []
        step = Execution.step

        def stepping(run, slot):
            at[0] = slot
            step(run, slot)

        monkeypatch.setattr(Execution, "step", stepping)
        for cls in (_KDeepTracker, _DensityTracker):
            def on_block(tracker, block_id, original=cls.on_block):
                activated.add((id(tracker), at[0]))
                return original(tracker, block_id)

            def current(tracker, original=cls.current):
                read.append((id(tracker), at[0]))
                return original(tracker)

            monkeypatch.setattr(cls, "on_block", on_block)
            monkeypatch.setattr(cls, "current", current)
        cfg = build()
        t = run_execution(cfg)
        first = {(tracker, 1) for tracker, slot in read if slot == 1}
        assert len(first) == len(cfg.processors)
        assert set(read) - first <= activated
        assert len(read) == len(set(read)) < len(cfg.processors) * cfg.duration
        assert len(t.confirmations) <= len(read)


# ---------------------------------------------------------------------------
# the step context
# ---------------------------------------------------------------------------


def _recording(base):
    """``base`` with hooks that record what each one's context shows: the
    slot, the responses as (key, leader slot, granted ids) and the ids
    delivered.  A strategy keeps copies, never the context."""

    class Recording(base):
        standing = base.standing

        def __init__(self):
            super().__init__()
            self.seen = []

        def _note(self, hook, ctx):
            self.seen.append((hook, ctx.slot, [
                (r.key, r.leader and r.leader.slot,
                 sorted(m.id for m in r.granted)) for r in ctx.responses],
                [m.id for m in ctx.delivered]))

        def on_receive(self, ctx):
            self._note("on_receive", ctx)
            super().on_receive(ctx)

        def plan_broadcasts(self, ctx):
            self._note("plan_broadcasts", ctx)
            return super().plan_broadcasts(ctx)

        def plan_requests(self, ctx):
            self._note("plan_requests", ctx)
            return super().plan_requests(ctx)

    return Recording


@pytest.mark.parametrize("build, base", [
    (lambda: stake_config(duration=80), HonestStakeStrategy),
    (lambda: work_config(duration=150, rate=Fraction(1, 3)), HonestWorkStrategy),
], ids=["stake", "standing-work"])
def test_each_step_sees_its_own_slot(build, base):
    """The engine rewrites one context per processor; each hook of a step
    still sees that slot's responses (last slot's grants) and deliveries,
    a standing miner included after slots it was not stepped."""
    cfg = build()
    made = {}
    cls = _recording(base)
    for spec in cfg.processors:
        spec.strategy = lambda pid=spec.id: made.setdefault(pid, cls())
    t = run_execution(cfg)
    seen = [entry for strategy in made.values() for entry in strategy.seen]
    assert any(r for *_, r, _d in seen) and any(d for *_, d in seen)
    for pid, strategy in made.items():
        slots = sorted({slot for _hook, slot, _r, _d in strategy.seen})
        if base.standing:
            assert len(slots) < cfg.duration  # some slots were not stepped
        for slot in slots:
            grants = [(g.key, g.leader_slot, sorted(g.granted))
                      for g in t.grants if g.slot == slot - 1 and g.proc == pid]
            delivered = [mid for s, proc, mid in t.deliveries
                         if s == slot and proc == pid]
            seen = [(hook, r, d) for hook, s, r, d in strategy.seen
                    if s == slot]
            assert seen == [(hook, grants, delivered) for hook in (
                "on_receive", "plan_broadcasts", "plan_requests")]
