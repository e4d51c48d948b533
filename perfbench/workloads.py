"""The benchmark's workloads: their shapes, inputs, closed loop and gates.

Every workload runs Dordis rounds through the package's public API as a
closed loop: one process, one round in flight, the next round submitted
only when the previous one has returned and been checked.  All rounds use
the ``serialized`` transport (every payload crosses the ``repro.wire``
codecs, so byte counts are the framed bytes a socket would carry), priced
by a fleet of devices so each round also has a modeled virtual time.  The
socket carriers are left out: a socket round opens one connection per
client, and their frames are byte-identical to the serialized boundary.

Everything a round consumes comes from the workload seed: signals, noise
seeds, who drops out, the device fleet, and for the training session its
data and sampling.  The one exception is the session's dropout schedule
(see :func:`session_dropout`).  ``SecAggConfig.workers`` stays at the
library default.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import statistics
import time
import zlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# σ²_* in the ring domain: noise of standard deviation 256 in Z_{2^20}.
TARGET_VARIANCE = float(2**16)
RING_BITS = 20
DH_GROUP = "modp512"
# A round that has not returned after this long counts as hung.
HANG_SECONDS = 90.0


class WorkloadError(RuntimeError):
    """The workload cannot be set up as defined."""


@dataclass(frozen=True)
class RoundShape:
    """One XNoise+SecAgg round: d, n, t, T and how many drop before upload."""

    dimension: int
    n: int
    threshold: int
    tolerance: int
    dropped: int


@dataclass(frozen=True)
class SessionShape:
    """A training session: population, sample, model width and chunking."""

    num_clients: int = 40
    sample_size: int = 12
    mlp_hidden: int = 512
    pipeline_chunks: int = 4
    dropout_rate: float = 0.2
    # Planned training horizon; a run stops earlier, when its time is up.
    horizon: int = 24


ROUND_SHAPES = {
    "large-model": RoundShape(dimension=2**18, n=16, threshold=9, tolerance=4, dropped=1),
    "large-cohort": RoundShape(dimension=4096, n=32, threshold=17, tolerance=8, dropped=8),
}
# The first round of a run warms code paths and caches at a small shape.
WARMUP_SHAPE = RoundShape(dimension=256, n=5, threshold=3, tolerance=1, dropped=1)
SESSION_SHAPE = SessionShape()
# ``large-model`` runs by name but is not one of BENCHMARK.json's workloads:
# about 60% of its round is Skellam sampling over 2^18-element vectors, whose
# speed on a shared 2-vCPU Xeon host drifted by about half over twenty
# minutes, more than any bound the benchmark may set.  The session workload
# measures the same xnoise and PRG layers.
WORKLOADS = ("large-model", "large-cohort", "pipelined-session")


@dataclass
class RoundRecord:
    """What one closed-loop round did, and whether it was verified."""

    index: int
    warmup: bool = False
    traced: bool = False
    wall_s: float = 0.0
    error: str = ""
    serials: tuple = (0, 0)  # engine round serials [first, last) it executed
    survivors: int = 0
    sampled: int = 0
    dimension: int = 0
    chunks: int = 1
    result: object = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return not self.error


class ClosedLoop:
    """Paces a run: decides which rounds are traced and when to stop.

    The run measures for ``seconds`` from the start of its first round.  A
    new round starts only if the median round so far would still end in
    time, and at least ``min_rounds`` rounds always run: the warm-up, one
    measured round, and with tracing one traced round as well.  Traced
    runs alternate untraced and traced rounds after the warm-up, so the
    two medians share the same conditions.
    """

    def __init__(self, seconds: float, recorder=None):
        self.seconds = seconds
        self.recorder = recorder
        self.min_rounds = 3 if recorder is not None else 2
        self.records: list[RoundRecord] = []
        self._t_start: Optional[float] = None

    def start(self, record: RoundRecord) -> None:
        if self._t_start is None:
            self._t_start = time.perf_counter()
        record.traced = self.recorder is not None and record.index % 2 == 1
        if record.traced:
            self.recorder.install()
            self.recorder.begin_round(record.index)

    def finish(self, record: RoundRecord) -> bool:
        """Close the round; returns True when the run should stop."""
        if record.traced:
            self.recorder.end_round()
            self.recorder.uninstall()
        self.records.append(record)
        if record.error.startswith("hang"):
            return True
        if len(self.records) < self.min_rounds:
            return False
        walls = [r.wall_s for r in self.records if not r.warmup] or [record.wall_s]
        elapsed = time.perf_counter() - self._t_start
        return elapsed + statistics.median(walls) > self.seconds


def _failure(exc: BaseException) -> str:
    if isinstance(exc, asyncio.TimeoutError):
        return f"hang: no result within {HANG_SECONDS:.0f} s"
    return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# Engine-trace view of one round
# ---------------------------------------------------------------------------


def engine_round_view(trace, record: RoundRecord) -> dict:
    """Bytes, modeled time and pipeline idleness of one round's serials."""
    first, last = record.serials
    spans = [s for s in trace.spans if first <= s.round_index < last]
    out = {"modeled_s": 0.0, "up_bytes": 0, "down_bytes": 0, "stage_bytes": {},
           "idle_share": 0.0, "masked_up_bytes": 0}
    if not spans:
        return out
    bounds: dict[int, list[float]] = {}
    for s in spans:
        b = bounds.setdefault(s.round_index, [s.begin, s.finish])
        b[0], b[1] = min(b[0], s.begin), max(b[1], s.finish)
        up_down = out["stage_bytes"].setdefault(s.label, [0, 0])
        up_down[0] += s.up_bytes
        up_down[1] += s.down_bytes
        out["up_bytes"] += s.up_bytes
        out["down_bytes"] += s.down_bytes
    out["modeled_s"] = sum(f - b for b, f in bounds.values())
    out["masked_up_bytes"] = out["stage_bytes"].get("masked_input", [0, 0])[0]
    begin = min(s.begin for s in spans)
    duration = max(s.finish for s in spans) - begin
    if duration > 0:
        busy = 0.0
        resources = sorted({s.resource for s in spans})
        for resource in resources:
            intervals = sorted((s.begin, s.finish) for s in spans if s.resource == resource)
            end = -math.inf
            for b, f in intervals:
                if f > end:
                    busy += f - max(b, end)
                    end = f
        out["idle_share"] = 1.0 - busy / (len(resources) * duration)
    return out


# ---------------------------------------------------------------------------
# XNoise+SecAgg rounds: large-model and large-cohort
# ---------------------------------------------------------------------------


def component_variances(n: int, tolerance: int, target: float) -> list[float]:
    """Theorem 1's decomposition (§3.2) with no collusion tolerance.

    n_{u,0} ~ χ(σ²/|U|) and n_{u,k} ~ χ(σ²/((|U|−k+1)(|U|−k))), k = 1..T.
    """
    return [target / n] + [
        target / ((n - k + 1) * (n - k)) for k in range(1, tolerance + 1)
    ]


class RoundCase:
    """One round's inputs and its independently computed expected outcome."""

    def __init__(self, shape: RoundShape, seed: int, tag: str):
        from repro.secagg.types import SecAggConfig
        from repro.xnoise.protocol import XNoiseConfig

        self.shape = shape
        self.config = XNoiseConfig(
            secagg=SecAggConfig(
                threshold=shape.threshold, bits=RING_BITS,
                dimension=shape.dimension, dh_group=DH_GROUP,
            ),
            n_sampled=shape.n,
            tolerance=shape.tolerance,
            target_variance=TARGET_VARIANCE,
        )
        rng = np.random.default_rng([seed, zlib.crc32(tag.encode())])
        ids = list(range(1, shape.n + 1))
        self.signals = {
            u: rng.integers(-(2**10), 2**10, size=shape.dimension, dtype=np.int64)
            for u in ids
        }
        self.dropped = {int(u) for u in rng.choice(ids, size=shape.dropped, replace=False)}
        self.survivors = [u for u in ids if u not in self.dropped]
        self.noise_seeds = {
            u: [
                hashlib.sha256(f"perfbench:{tag}:{seed}:{u}:{k}".encode()).digest()
                for k in range(shape.tolerance + 1)
            ]
            for u in ids
        }
        self.expected = self._expected_sum()

    def _expected_sum(self) -> np.ndarray:
        """Σ over U3 of (signal + noise components 0..min(|D|, T)) mod 2^b."""
        from repro.xnoise.protocol import skellam_noise_from_seed

        shape = self.shape
        variances = component_variances(shape.n, shape.tolerance, TARGET_VARIANCE)
        kept = min(len(self.dropped), shape.tolerance)
        total = np.zeros(shape.dimension, dtype=np.int64)
        for u in self.survivors:
            total += self.signals[u]
            for k in range(kept + 1):
                total += skellam_noise_from_seed(
                    self.noise_seeds[u][k], variances[k], shape.dimension
                )
        return total % (1 << RING_BITS)

    async def submit(self, engine, round_index: int):
        from repro.secagg.driver import DropoutSchedule
        from repro.xnoise.protocol import XNoiseClient, arun_xnoise_round

        def factory(u: int) -> XNoiseClient:
            return XNoiseClient(
                u, self.config, noise_seeds=self.noise_seeds[u], round_index=round_index
            )

        return await arun_xnoise_round(
            self.config,
            dict(self.signals),
            DropoutSchedule.before_upload(self.dropped),
            round_index=round_index,
            client_factory=factory,
            engine=engine,
        )

    def check(self, result) -> str:
        """The correctness gate: "" when the round is verified."""
        shape = self.shape
        problems = []
        if list(result.u3) != self.survivors:
            problems.append(f"survivors {list(result.u3)} != {self.survivors}")
        if not np.array_equal(result.aggregate, self.expected):
            problems.append("aggregate differs from the independent ring sum")
        if result.tolerance_exceeded or not math.isclose(
            result.residual_variance, TARGET_VARIANCE, rel_tol=1e-9
        ):
            problems.append(
                f"residual variance {result.residual_variance} != Theorem-1 "
                f"value {TARGET_VARIANCE}"
            )
        removed = len(self.survivors) * (
            shape.tolerance - min(len(self.dropped), shape.tolerance)
        )
        if result.removed_noise_components != removed:
            problems.append(
                f"removed {result.removed_noise_components} noise components, "
                f"expected {removed}"
            )
        return "; ".join(problems)


class XNoiseRounds:
    """Repeats one XNoise+SecAgg round shape on one engine."""

    def __init__(self, name: str, seed: int, shape: RoundShape):
        self.name = name
        self.seed = seed
        self.shape = shape
        self.engine = None

    def construct(self) -> None:
        """The system's set-up: the device fleet and the round engine."""
        from repro.engine import RoundEngine
        from repro.fleet import Fleet, FleetConfig, fleet_transport

        fleet = Fleet.build(self.shape.n, FleetConfig(), seed=self.seed)
        # Protocol client ids start at 1 (non-zero Shamir points).
        self.engine = RoundEngine(
            transport=fleet_transport("serialized", fleet.with_id_offset(1))
        )

    def prepare(self) -> None:
        """The benchmark's own inputs and expected sums (not set-up time)."""
        self.case = RoundCase(self.shape, self.seed, self.name)
        self.warmup_case = RoundCase(WARMUP_SHAPE, self.seed, self.name + ":warmup")

    def run(self, loop: ClosedLoop) -> None:
        asyncio.run(self._drive(loop))

    async def _drive(self, loop: ClosedLoop) -> None:
        index = 0
        while True:
            case = self.warmup_case if index == 0 else self.case
            record = RoundRecord(
                index, warmup=index == 0, survivors=len(case.survivors),
                sampled=case.shape.n, dimension=case.shape.dimension,
            )
            loop.start(record)
            first = self.engine.round_serial
            root = loop.recorder.open("round", stage="round") if record.traced else None
            t0 = time.perf_counter()
            try:
                result = await asyncio.wait_for(
                    case.submit(self.engine, index), HANG_SECONDS
                )
                record.error = case.check(result)
            except Exception as exc:  # every failure is a failed round
                record.error = _failure(exc)
            record.wall_s = time.perf_counter() - t0
            if root is not None:
                loop.recorder.close(root)
            record.serials = (first, self.engine.round_serial)
            if loop.finish(record):
                return
            index += 1


# ---------------------------------------------------------------------------
# The pipelined training session
# ---------------------------------------------------------------------------


# The first candidate seed of the session's dropout schedule.
DROPOUT_SEED = 0


def session_dropout(shape: SessionShape):
    """The fleet's fixed-rate availability model, on one schedule for all seeds.

    Sampled clients drop i.i.d. at ``dropout_rate`` (the fleet's
    ``"fixed"`` model).  How many drop in a round sets how much protocol
    work it does — XNoise removes T − |D| components per survivor, and
    the server re-derives the dropped clients' masks — so a schedule that
    followed the workload seed would make seeds differ in work, not only
    in values.  The schedule is the first, from ``DROPOUT_SEED`` on, whose
    planned horizon never drops more clients than SecAgg survives: with 12
    sampled and threshold 7, a round in which 6 or more drop (about 2% of
    rounds) is correctly refused and yields no aggregate.  Every round is
    then expected to produce a verified aggregate, and an abort is a real
    failure.  The number dropped in round r depends only on the schedule's
    seed, r and the sample size, not on who was sampled.
    """
    from repro.fleet.availability import build_availability

    limit = shape.sample_size - session_threshold(shape.sample_size)
    cohort = list(range(shape.sample_size))
    for seed in range(DROPOUT_SEED, DROPOUT_SEED + 1000):
        model = build_availability(
            "fixed", n_clients=shape.num_clients, horizon=shape.horizon,
            dropout_rate=shape.dropout_rate, seed=seed,
        )
        if all(len(model.dropped(cohort, r)) <= limit for r in range(shape.horizon)):
            return model
    raise WorkloadError("no dropout schedule stays within the SecAgg threshold")


def session_threshold(n: int) -> int:
    """The SecAgg threshold a training session uses for n sampled clients."""
    return max(2, n // 2 + 1)


class SessionRounds:
    """A DordisSession running chunk-pipelined XNoise+SecAgg training rounds."""

    def __init__(self, name: str, seed: int, shape: SessionShape = SESSION_SHAPE):
        self.name = name
        self.seed = seed
        self.shape = shape
        self.session = None
        self.training = None

    @property
    def engine(self):
        return self.session.engine

    def construct(self) -> None:
        """The system's set-up: the session (dataset, fleet, model, plan)."""
        from repro.core.config import DordisConfig
        from repro.core.dordis import DordisSession

        shape = self.shape
        config = DordisConfig(
            task="cifar100-like",
            model="mlp",
            mlp_hidden=shape.mlp_hidden,
            num_clients=shape.num_clients,
            sample_size=shape.sample_size,
            rounds=shape.horizon,
            mechanism="skellam",
            strategy="xnoise",
            secure_aggregation="secagg",
            pipeline_chunks=shape.pipeline_chunks,
            dropout_rate=shape.dropout_rate,
            transport="serialized",
            dh_group=DH_GROUP,
            seed=self.seed,
        )
        self.session = DordisSession(config, dropout_model=session_dropout(shape))

    def prepare(self) -> None:
        session = self.session
        n = self.shape.sample_size
        self.dimension = session.skellam.padded_dimension
        self.target_variance = session.plan.variance
        self.tolerance = session.strategy.tolerance(n)

    def run(self, loop: ClosedLoop) -> None:
        """Train until the loop stops it; one training round is one round."""
        engine = self.session.engine
        submit_round = engine.submit_round
        current: list[RoundRecord] = []

        async def run_chunked_round(*args, **kwargs):
            # Looked up on the class at call time, so a traced round sees
            # the wrapped engine entry point.
            result = await type(engine).run_chunked_round(engine, *args, **kwargs)
            current[-1].result = result
            return result

        def closed_loop_submit(runner, *, after=None):
            async def timed():
                record = RoundRecord(
                    len(loop.records), warmup=not loop.records,
                    sampled=self.shape.sample_size, dimension=self.dimension,
                    chunks=self.shape.pipeline_chunks,
                )
                current.append(record)
                loop.start(record)
                first = engine.round_serial
                core = None
                if record.traced:
                    core = loop.recorder.open("core", stage="round")
                t0 = time.perf_counter()
                stop = True
                try:
                    stop = await asyncio.wait_for(runner(), HANG_SECONDS)
                except Exception as exc:  # every failure is a failed round
                    record.error = _failure(exc)
                record.wall_s = time.perf_counter() - t0
                if core is not None:
                    loop.recorder.close(core)
                record.serials = (first, engine.round_serial)
                return loop.finish(record) or bool(stop) or not record.ok

            return submit_round(timed, after=after)

        engine.submit_round = closed_loop_submit
        engine.run_chunked_round = run_chunked_round
        try:
            self.training = self.session.run()
        finally:
            del engine.submit_round, engine.run_chunked_round
        self._verify(loop.records)

    def _verify(self, records: list[RoundRecord]) -> None:
        """Every round completed, met Theorem 1, and kept ε within budget."""
        budget = self.session.config.epsilon
        epsilons = iter(self.training.epsilon_history)
        for record in records:
            if record.ok:
                record.error = self.check_round(record)
            if record.result is not None:
                eps = next(epsilons, None)
                if record.ok and eps is None:
                    record.error = "round did not complete"
                elif record.ok and eps > budget * (1 + 1e-12):
                    record.error = f"epsilon {eps} over budget {budget}"

    def check_round(self, record: RoundRecord, target: Optional[float] = None) -> str:
        chunked = record.result
        if chunked is None:
            return "no aggregate (round aborted)"
        target = self.target_variance if target is None else target
        parts = chunked.chunk_results
        u3 = list(parts[0].u3)
        record.survivors = len(u3)
        n_dropped = self.shape.sample_size - len(u3)
        removed = len(u3) * (self.tolerance - min(n_dropped, self.tolerance))
        problems = []
        if len(parts) != self.shape.pipeline_chunks:
            problems.append(f"{len(parts)} chunks, expected {self.shape.pipeline_chunks}")
        for j, part in enumerate(parts):
            if list(part.u3) != u3:
                problems.append(f"chunk {j} survivors differ")
            if part.tolerance_exceeded or not math.isclose(
                part.residual_variance, target, rel_tol=1e-9
            ):
                problems.append(
                    f"chunk {j} residual variance {part.residual_variance} != "
                    f"Theorem-1 value {target}"
                )
            if part.removed_noise_components != removed:
                problems.append(
                    f"chunk {j} removed {part.removed_noise_components} noise "
                    f"components, expected {removed}"
                )
        if sum(len(p.aggregate) for p in parts) != self.dimension:
            problems.append("aggregate length differs from the padded model")
        return "; ".join(problems)


# Small shapes of the same workloads, for the benchmark's self-test.
TINY_ROUND_SHAPES = {
    "large-model": RoundShape(dimension=512, n=6, threshold=4, tolerance=2, dropped=1),
    "large-cohort": RoundShape(dimension=256, n=8, threshold=5, tolerance=3, dropped=3),
}
TINY_SESSION_SHAPE = SessionShape(
    num_clients=12, sample_size=6, mlp_hidden=8, pipeline_chunks=2, horizon=6
)


def make_workload(name: str, seed: int, tiny: bool = False):
    """A workload by name; ``tiny`` gives the self-test's small shapes."""
    if name in ROUND_SHAPES:
        shapes = TINY_ROUND_SHAPES if tiny else ROUND_SHAPES
        return XNoiseRounds(name, seed, shapes[name])
    if name == "pipelined-session":
        return SessionRounds(name, seed, TINY_SESSION_SHAPE if tiny else SESSION_SHAPE)
    raise WorkloadError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
