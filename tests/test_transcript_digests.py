"""Transcript-digest lock: the sha256 of fixed runs' transcript bytes.

A run is a pure function of its config and seed, and its transcript is
the product.  A refactor or a speed change must leave every byte of these
transcripts as it is.  A change that alters them on purpose updates the
table and says why in CHANGES.md.
"""

import hashlib
import io
from fractions import Fraction

import pytest

from permitsim.adversary import StakeWithholdStrategy
from permitsim.engine import ProcessorSpec, Transcript, run_execution
from permitsim.messages import PublicKey
from permitsim.network import PARTIALLY_SYNCHRONOUS, SynchronySchedule
from permitsim.protocols import HonestWorkStrategy
from permitsim.resource_pool import ScriptedPool, StakePool
from permitsim import scenarios
from permitsim.scenarios import get_scenario

from conftest import stake_config, work_config

SEEDS = (1, 2)

# case label -> (scenario, parameter overrides), small enough to run fast
CASES = {
    "honest": ("honest_work_liveness", {"duration": 300}),
    "double_spend": ("work_double_spend", {"duration": 600}),
    "simulation": ("simulation_release", {"duration": 500}),
    # a deep private run: releases past slot 700
    "simulation_deep": ("simulation_release", {"margin": 80, "maj_keys": 6}),
    "observers": ("isolated_observers", {"duration": 600}),
    # long enough for the density rule to confirm past genesis
    "stake_density": ("stake_density_certificates", {"duration": 1000}),
}

SCENARIO_DIGESTS = {
    ("honest", 1): {
        "transcript_sha256": "30f58992f55afc74c27efa4bd889ec18a2fff5b03d63c19697c2e1833916070c"},
    ("honest", 2): {
        "transcript_sha256": "97399a9aa31ade3b20efa9e423573e80db7ddb8b4dc0716c2cabea6bb5d96de5"},
    ("double_spend", 1): {
        "transcript_sha256": "2ffa990c4735749e2c8bd6a85d41da0f9528be616cb1a017aafb22a41b0c5025"},
    ("double_spend", 2): {
        "transcript_sha256": "bacc57b865dff34649cfb33b8c32eaf4cad6ceded30422e3123594a990ddc2af"},
    ("simulation", 1): {
        "inner_sha256": "31d8b835f1877c2e1c05e439ffc789cc11b25bb318e7cf2211728f0a5ae11471",
        "attacked_sha256": "47d2d7d4ec4ba31432c84c4fcf5a21d0e7d984bbce94df1b03c316c3be2581ef"},
    ("simulation", 2): {
        "inner_sha256": "2e06b8fb893465d828e63cafe074f08f1631ce90a9bc790350127963f7318878",
        "attacked_sha256": "990d0014ba9dac14721a9cf8ead3bcbd426ed800fc581fd0ae8e4d26c40825d5"},
    ("simulation_deep", 1): {
        "inner_sha256": "335da9f7451fa6a83fa438f5cdc02cf3d787872b8a01d827b6060521991c7a87",
        "attacked_sha256": "cc16295c9892bcce2671149ae3ee035130b8207c23a05001768adc7a0c13b320"},
    ("simulation_deep", 2): {
        "inner_sha256": "853c66f100f7c7f38611aaf85fbab7411a3c2766dfdc28b142ec4c01c14079b5",
        "attacked_sha256": "ff100231e5019af2efc365b8d791db92e299be0fd1144bf90b23f3153813cb9d"},
    ("observers", 1): {
        "base_sha256": "2ffa990c4735749e2c8bd6a85d41da0f9528be616cb1a017aafb22a41b0c5025",
        "extended_sha256": "35d12929e4cdea40f3634675c9e974e63b51a51db89a690d68392af9e2d62b06"},
    ("observers", 2): {
        "base_sha256": "bacc57b865dff34649cfb33b8c32eaf4cad6ceded30422e3123594a990ddc2af",
        "extended_sha256": "e6ac1780d280415b681734796cf5b160e754bf08f6bf0be179ebb59fbd8318f7"},
    ("stake_density", 1): {
        "transcript_sha256": "fed0d508e30790d1a2a26cfa1e242f87cda3dc5aabf4792b481e29ba60c32ee3"},
    ("stake_density", 2): {
        "transcript_sha256": "b8cd192614bdeb1fc3dbf9517cdbc2aa1283c2a6d3db8439c323ef6b76465c03"},
}


# beyond the conftest configs: partitioned traffic and a wide roster with
# random delays, where many deliveries share a receiver and a due slot
def partitioned_config():
    """Four miners split in two groups by a partition parked inside the
    one asynchronous stretch; cross-group traffic waits for its end."""
    cfg = work_config(duration=300, processors=4, rate=Fraction(1, 3),
                      label="partitioned")
    cfg.schedule = SynchronySchedule(duration=300,
                                     setting=PARTIALLY_SYNCHRONOUS,
                                     async_intervals=((75, 110),))
    cfg.timing = {"policy": "partition", "interval": [75, 110],
                  "groups": [["p0", "p1"], ["p2", "p3"]],
                  "base": {"policy": "uniform_delay", "delay": 2}}
    return cfg


def wide_random_config():
    """Twelve miners with a random delay on every edge."""
    cfg = work_config(duration=300, processors=12, rate=Fraction(1, 3),
                      label="wide-random")
    cfg.timing = {"policy": "per_edge_random", "max_delay": 2}
    return cfg


# pools whose balances move, so no grant threshold may be reused
def scripted_pool_config():
    """Three equal miners until slot 150; from then on p0 holds three
    quarters and p2 nothing."""
    cfg = work_config(duration=300, label="scripted-pool")
    p0, p1, p2 = (PublicKey(f"p{i}", 0) for i in range(3))
    cfg.pool = ScriptedPool([(1, {p0: 1, p1: 1, p2: 1}),
                             (150, {p0: 3, p1: 1, p2: 0})])
    return cfg


def stake_lookahead_1_config():
    """Two stakers at the edge of the window: each asks only one slot ahead."""
    return stake_config(duration=300, lookahead=1, label="stake-lookahead-1")


def stake_reward_config(lookahead=6):
    """Two stakers whose recorded stake grows by one per seasoned block."""
    cfg = stake_config(duration=300, lookahead=lookahead, label="stake-reward")
    cfg.pool = StakePool({PublicKey("s0", 0): 2, PublicKey("s1", 0): 1},
                         reward=1, min_recording_age=3)
    return cfg


def withheld_reward_config(lookahead=6):
    """A rewarded stake pool where the larger staker withholds its blocks
    for 20 slots at a time: its grants' message-set digests and its stake
    reads come from its private fork views."""
    cfg = stake_reward_config(lookahead)
    cfg.label = "withheld-reward"
    s0 = PublicKey("s0", 0)
    cfg.processors[0] = ProcessorSpec(
        id=s0.owner, keys=(s0,),
        strategy=lambda: StakeWithholdStrategy(period=20),
        adversary=True)
    return cfg


def odd_labels_config():
    """Four miners whose ids and key groups hold a quote, a backslash, a
    control character, non-ASCII and an astral character: the strings a
    canonical JSON encoding must escape."""
    owners = ('q"0', "b\\1", "\u00e9\t2", "\U0001F600 3")
    balances = {PublicKey(o, 0): Fraction(1) for o in owners}
    return work_config(duration=200, rate=Fraction(1, 3), balances=balances,
                       label='odd "labels" \u00e9\U0001F600')


def withheld_reward_lookahead_2_config():
    """The withheld rewarded pool under a permitter window of two slots."""
    cfg = withheld_reward_config(lookahead=2)
    cfg.label = "withheld-reward-lookahead-2"
    return cfg


CONFIG_DIGESTS = {
    "work_config": "2c8b6c9df740384dce8e40abdef981f1a86386810e589bb8a01f85007f66eca2",
    "stake_config": "2d4908654ce50e3ae456fcc521b87e4856cfffffb4ae336a0ee4f204e2a524f5",
    "partitioned_config": "906b922725eb6b179994fae20bf284cf8bd3133b434559411bcc6468e40b5a0f",
    "wide_random_config": "d553e2bb4f98a249ce7aa39b6f302b52227d8e96d4bd333e97e05dc6a2418b79",
    "scripted_pool_config": "442d8ccb709a4b884b99298a44f2f8e61bd0c86c471be89b9c16bf5b92f8c6c8",
    "stake_reward_config": "75d61c9eeecb133ef3bd694ba4da4865f9e14ed2668084a4d881ab590797f3b7",
    "withheld_reward_config": "5181d3829a7ab66deb1b6555ede906958c8805af06e9c4b5d12005dc35d3b0f5",
    "stake_lookahead_1_config": "a0f666663aab4ef4f774c527629eca91516bcab5fab98aa0e548f2e568c1583c",
    "withheld_reward_lookahead_2_config": "cc7d8ab585bb7b666a2df0638daecade7109ef1b773745a770fe66d7266e380a",
    "odd_labels_config": "da586816e11d36232add4cb9904d08131db60c1711e4df753cc60f7ad3fa4dc2",
}


def test_every_case_is_pinned_at_every_seed():
    assert set(SCENARIO_DIGESTS) == {(c, s) for c in CASES for s in SEEDS}


@pytest.mark.parametrize("case,seed", sorted(SCENARIO_DIGESTS))
def test_scenario_transcripts_are_unchanged(case, seed):
    name, overrides = CASES[case]
    scenario = get_scenario(name)
    row = scenario.run_trial(scenario.resolve_params(overrides), seed)
    digests = {k: v for k, v in row.items() if k.endswith("_sha256")}
    assert digests == SCENARIO_DIGESTS[(case, seed)]


CONFIGS = [work_config, stake_config, partitioned_config, wide_random_config,
           scripted_pool_config, stake_reward_config, withheld_reward_config,
           stake_lookahead_1_config, withheld_reward_lookahead_2_config,
           odd_labels_config]


@pytest.mark.parametrize("build", CONFIGS, ids=lambda b: b.__name__)
def test_conftest_config_transcripts_are_unchanged(build):
    data = run_execution(build()).to_bytes()
    assert hashlib.sha256(data).hexdigest() == CONFIG_DIGESTS[build.__name__]


@pytest.mark.parametrize("build", CONFIGS, ids=lambda b: b.__name__)
def test_loaded_transcripts_give_back_their_bytes(build):
    data = run_execution(build()).to_bytes()
    assert Transcript.from_lines(data.decode().splitlines()).to_bytes() == data


@pytest.mark.parametrize("build", CONFIGS, ids=lambda b: b.__name__)
def test_a_streamed_save_writes_the_same_bytes(build):
    transcript = run_execution(build())
    data = transcript.to_bytes()
    sink = io.BytesIO()
    digest = transcript.write(sink)
    assert sink.getvalue() == data
    assert digest == hashlib.sha256(data).hexdigest()
    assert digest == CONFIG_DIGESTS[build.__name__]
    assert scenarios._save(transcript, None) == digest


# an honest miner's idle slots (no delivery due, no grant pending) are not
# stepped; its standing request is only drawn again
UNTIMED = [work_config, partitioned_config, wide_random_config,
           scripted_pool_config]


class _SteppedEverySlot(HonestWorkStrategy):
    """The honest miner without standing requests."""

    standing = False


@pytest.mark.parametrize("build", UNTIMED, ids=lambda b: b.__name__)
def test_standing_requests_change_no_byte(build):
    stepped = build()
    for spec in stepped.processors:
        assert spec.strategy is HonestWorkStrategy
        spec.strategy = _SteppedEverySlot
    assert run_execution(build()).to_bytes() == run_execution(stepped).to_bytes()


def test_honest_miners_plan_only_at_their_events(monkeypatch):
    slots = []
    plan = HonestWorkStrategy.plan_requests

    def counted(self, ctx):
        slots.append(ctx.slot)
        return plan(self, ctx)

    monkeypatch.setattr(HonestWorkStrategy, "plan_requests", counted)
    cfg = wide_random_config()
    data = run_execution(cfg).to_bytes()
    assert hashlib.sha256(data).hexdigest() == CONFIG_DIGESTS["wide_random_config"]
    assert slots.count(1) == len(cfg.processors)  # every miner starts
    assert len(slots) < len(cfg.processors) * cfg.duration / 3
