"""Deterministic slot-based simulation of permissioning-oracle protocols.

Block production is gated by an oracle that answers permission requests
against a resource pool (hash rate, stake); the package provides the
execution engine, reference honest and adversarial strategies, attack
constructions, confirmation rules, and the statistical and closed-form
analysis around them.
"""

from .adversary import (PrivateForkStrategy, SimulationAttackerStrategy,
                        StakeWithholdStrategy,
                        build_isolated_observer_instance)
from .analysis import (CertificateRecalibration, EllTable, LivenessReport,
                       RecalibrationPlan, SecurityReport,
                       build_certificate_recalibration, certifiable_blocks,
                       check_security, measure_liveness,
                       recalibrate_union_bound, sublinear_overhead_threshold,
                       verify_transcript_invariants, wilson_interval)
from .blocktree import BlockIndex, BlockSetView
from .engine import (ExecutionConfig, Grant, ProcessorSpec, Transcript,
                     run_execution)
from .errors import (ConfigError, DanglingBlockError, ExecutionFault,
                     ScheduleViolationError, SettingMismatchError,
                     TranscriptFormatError)
from .experiment import (ExperimentSpec, Scenario, canonical_report_bytes,
                         run_experiment)
from .messages import Message, PublicKey, genesis_block, make_block
from .network import (PerEdgeRandomRule, SynchronySchedule, UniformDelayRule,
                      build_timing_rule, check_delta_conformance)
from .permitter import (LeaderGrant, PermitRequest, PermitResponse,
                        StakePermitter, WorkPermitter)
from .protocols import (ConfirmationRule, DensityCertificateRule,
                        HonestStakeStrategy, HonestWorkStrategy, KDeepRule,
                        ObserverStrategy, ProductionProfile, StepContext,
                        Strategy, density_threshold, interval_length_r)
from .resource_pool import (ConstantBalancePool, ScriptedPool, StakePool,
                            dominates, is_q_bounded)
from .scenarios import SCENARIOS, get_scenario

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
