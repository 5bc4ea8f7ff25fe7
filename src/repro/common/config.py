"""Machine configuration dataclasses.

Every structural parameter of the simulated machine lives here, as frozen
dataclasses, so a :class:`SimulationConfig` fully determines a run (together
with the input trace and seed).  The constructors :meth:`SimulationConfig
.paper_default` and friends reproduce Table 1 of the paper:

======================  =======================================
Target frequency        2 GHz (implicit; latencies in cycles)
Issue / retire          8 instructions per cycle
Reorder buffer          128 entries
Load/store queue        64 entries
Branch predictor        bimodal, 2048 entries
BTB                     4-way, 4096 sets
L1 I/D                  8 KB, 32 B lines, direct-mapped, 1 cycle
L1 D ports              3 (universal read/write)
L2 I/D                  512 KB, 32 B lines, 4-way, 15 cycles
L2 ports                1
Memory latency          150 core cycles
Prefetch queue          64 entries
History table           4096 entries (1 KB of 2-bit counters)
======================  =======================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any


class FilterKind(enum.Enum):
    """Which pollution filter is wired between prefetchers and the L1."""

    NONE = "none"
    PA = "pa"
    PC = "pc"
    STATIC = "static"
    ORACLE = "oracle"
    ADAPTIVE = "adaptive"

    @classmethod
    def from_name(cls, name: str) -> "FilterKind":
        """Resolve a filter name with an actionable error on a typo."""
        try:
            return cls(str(name).strip().lower())
        except ValueError:
            known = ", ".join(kind.value for kind in cls)
            raise ValueError(
                f"unknown filter {name!r}: choose one of {known}"
            ) from None


#: Engine tiers :class:`repro.core.simulator.Simulator` can build.  Kept
#: here (the leaf of the import graph) so configs can be validated before
#: any engine module is imported or any worker is spawned.
KNOWN_ENGINES = ("pipeline", "kernel")


def _power_of_two(name: str, value: int) -> None:
    if value <= 0 or value & (value - 1):
        hint = ""
        if value > 0:
            below = 1 << (value.bit_length() - 1)
            hint = f" (nearest valid: {below} or {below * 2})"
        raise ValueError(f"{name} must be a positive power of two, got {value}{hint}")


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level.

    ``assoc == 0`` is shorthand for fully associative (one set).
    """

    size_bytes: int
    line_bytes: int = 32
    assoc: int = 1
    latency: int = 1
    ports: int = 1
    writeback: bool = True
    write_allocate: bool = True

    def __post_init__(self) -> None:
        _power_of_two("line_bytes", self.line_bytes)
        if self.size_bytes % self.line_bytes:
            raise ValueError("cache size must be a multiple of the line size")
        n_lines = self.size_bytes // self.line_bytes
        assoc = self.assoc if self.assoc else n_lines
        if n_lines % assoc:
            raise ValueError("line count must be a multiple of associativity")
        _power_of_two("num_sets", n_lines // assoc)
        if self.latency < 1:
            raise ValueError("cache latency must be at least 1 cycle")
        if self.ports < 1:
            raise ValueError("cache must have at least one port")

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def ways(self) -> int:
        """Effective associativity (resolves the fully-associative shorthand)."""
        return self.assoc if self.assoc else self.num_lines

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.ways

    @property
    def offset_bits(self) -> int:
        return self.line_bytes.bit_length() - 1

    def line_address(self, byte_address: int) -> int:
        """Strip the line-offset bits from a byte address."""
        return byte_address >> self.offset_bits

    def set_index(self, line_address: int) -> int:
        return line_address & (self.num_sets - 1)


@dataclass(frozen=True)
class HierarchyConfig:
    """The full data-side memory hierarchy: L1 D, unified L2, memory."""

    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=8 * 1024, line_bytes=32, assoc=1, latency=1, ports=3
        )
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=512 * 1024, line_bytes=32, assoc=4, latency=15, ports=1
        )
    )
    memory_latency: int = 150
    bus_bytes: int = 64
    mshr_entries: int = 32

    def __post_init__(self) -> None:
        if self.l1.line_bytes != self.l2.line_bytes:
            raise ValueError("L1 and L2 must share a line size")
        if self.memory_latency < 1:
            raise ValueError("memory latency must be positive")
        if self.mshr_entries < 1:
            raise ValueError("need at least one MSHR")


@dataclass(frozen=True)
class ProcessorConfig:
    """Out-of-order core parameters (Table 1, processor section)."""

    issue_width: int = 8
    retire_width: int = 8
    rob_entries: int = 128
    lsq_entries: int = 64
    branch_predictor_entries: int = 2048
    btb_sets: int = 4096
    btb_ways: int = 4
    mispredict_penalty: int = 8

    def __post_init__(self) -> None:
        for name in ("issue_width", "retire_width", "rob_entries", "lsq_entries"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        _power_of_two("branch_predictor_entries", self.branch_predictor_entries)
        _power_of_two("btb_sets", self.btb_sets)


@dataclass(frozen=True)
class PrefetchConfig:
    """Which prefetch generators are active and how aggressive they are."""

    nsp: bool = True
    sdp: bool = True
    software: bool = True
    stride: bool = False
    queue_entries: int = 64
    #: lines fetched per trigger.  The paper studies *aggressive* prefetching
    #: (Figure 2: prefetches are ~0.3-0.6x of demand traffic); degree 2
    #: reproduces that pressure on our shorter traces.  Ablations sweep it.
    degree: int = 2
    stride_table_entries: int = 256

    def __post_init__(self) -> None:
        if self.queue_entries < 1:
            raise ValueError("prefetch queue needs at least one entry")
        if self.degree < 1:
            raise ValueError("prefetch degree must be at least 1")

    @property
    def any_enabled(self) -> bool:
        return self.nsp or self.sdp or self.software or self.stride


@dataclass(frozen=True)
class FilterConfig:
    """The pollution filter: kind, history table geometry, thresholds."""

    kind: FilterKind = FilterKind.NONE
    table_entries: int = 4096
    counter_bits: int = 2
    initial_value: int = 2
    threshold: int = 2
    static_bad_fraction: float = 0.5
    adaptive_accuracy_floor: float = 0.5
    adaptive_window: int = 512

    def __post_init__(self) -> None:
        _power_of_two("table_entries", self.table_entries)
        if not 1 <= self.counter_bits <= 8:
            raise ValueError("counter_bits must be in [1, 8]")
        top = (1 << self.counter_bits) - 1
        if not 0 <= self.initial_value <= top:
            raise ValueError("initial_value outside counter range")
        if not 0 < self.threshold <= top:
            raise ValueError("threshold outside counter range")
        if not 0.0 <= self.static_bad_fraction <= 1.0:
            raise ValueError("static_bad_fraction must be a fraction")

    @property
    def table_bytes(self) -> int:
        """Storage cost of the history table (the paper quotes 1 KB at 4K×2b)."""
        return self.table_entries * self.counter_bits // 8


@dataclass(frozen=True)
class PrefetchBufferConfig:
    """Dedicated fully-associative prefetch buffer (Section 5.5)."""

    enabled: bool = False
    entries: int = 16

    def __post_init__(self) -> None:
        if self.entries < 1:
            raise ValueError("prefetch buffer needs at least one entry")


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to reproduce one simulation run."""

    processor: ProcessorConfig = field(default_factory=ProcessorConfig)
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    prefetch: PrefetchConfig = field(default_factory=PrefetchConfig)
    filter: FilterConfig = field(default_factory=FilterConfig)
    prefetch_buffer: PrefetchBufferConfig = field(default_factory=PrefetchBufferConfig)
    max_instructions: int | None = None
    #: Instructions executed before measurement starts.  Structures (caches,
    #: predictors, history table) warm up during this window; all reported
    #: statistics cover only the post-warmup region.  Stands in for the
    #: paper's 300M-instruction runs where cold-start effects vanish.
    warmup_instructions: int = 0
    #: Simulation engine tier: ``"pipeline"`` (timing-accurate, default)
    #: or ``"kernel"`` (zero-contention functional replay over compiled
    #: flat-array kernels — classification-accurate, no real timing; see
    #: :mod:`repro.core.kernel`).  An explicit ``engine=`` argument to
    #: :class:`~repro.core.simulator.Simulator` overrides this field.
    engine: str = "pipeline"
    #: Opt-in runtime invariant checking (see :mod:`repro.sanitize`).
    #: Deliberately excluded from cache fingerprints: sanitized runs are
    #: bit-identical to unsanitized ones, so they share cached results.
    sanitize: bool = False

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "SimulationConfig":
        """Check cross-field invariants; raise actionable errors, return self.

        The sub-configs validate their own fields at construction; this
        collects everything that spans fields or names external components
        (engine tier, filter kind).  The CLI calls it on
        the fully-derived config before spawning any worker so a bad
        config fails in the parent with one clear message.
        """
        problems = []
        if self.warmup_instructions < 0:
            problems.append("warmup must be non-negative")
        if self.max_instructions is not None and self.max_instructions <= self.warmup_instructions:
            problems.append(
                f"max_instructions ({self.max_instructions}) must exceed the "
                f"warmup window ({self.warmup_instructions})"
            )
        if not isinstance(self.engine, str) or self.engine not in KNOWN_ENGINES:
            problems.append(
                f"unknown engine {self.engine!r}: choose one of {', '.join(KNOWN_ENGINES)}"
            )
        if not isinstance(self.filter.kind, FilterKind):
            problems.append(
                f"filter kind must be a FilterKind, got {self.filter.kind!r} "
                f"(use FilterKind.from_name(...) to resolve names)"
            )
        if problems:
            raise ValueError("; ".join(problems))
        return self

    # ------------------------------------------------------------------
    # Paper-configuration constructors
    # ------------------------------------------------------------------
    @classmethod
    def paper_default(cls, filter_kind: FilterKind = FilterKind.NONE) -> "SimulationConfig":
        """The Table 1 machine: 8 KB direct-mapped L1, 3 ports, 1-cycle hit."""
        return cls(filter=FilterConfig(kind=filter_kind))

    @classmethod
    def paper_32kb(cls, filter_kind: FilterKind = FilterKind.NONE) -> "SimulationConfig":
        """Section 5.2.2: 32 KB L1 with a 4-cycle access latency."""
        base = cls.paper_default(filter_kind)
        l1 = CacheConfig(size_bytes=32 * 1024, line_bytes=32, assoc=1, latency=4, ports=3)
        return base.with_l1(l1)

    @classmethod
    def paper_16kb(cls, filter_kind: FilterKind = FilterKind.NONE) -> "SimulationConfig":
        """Section 5.2.1 ablation: a 16 KB L1 instead of 8 KB + history table."""
        base = cls.paper_default(filter_kind)
        l1 = CacheConfig(size_bytes=16 * 1024, line_bytes=32, assoc=1, latency=2, ports=3)
        return base.with_l1(l1)

    @classmethod
    def paper_ports(cls, ports: int, filter_kind: FilterKind = FilterKind.PA) -> "SimulationConfig":
        """Section 5.4 sweep: 3/4/5 universal L1 ports with latency 1/2/3."""
        latency = {3: 1, 4: 2, 5: 3}.get(ports)
        if latency is None:
            raise ValueError("the paper evaluates 3, 4, or 5 L1 ports")
        base = cls.paper_default(filter_kind)
        l1 = CacheConfig(size_bytes=8 * 1024, line_bytes=32, assoc=1, latency=latency, ports=ports)
        return base.with_l1(l1)

    # ------------------------------------------------------------------
    # Derivation helpers (frozen dataclasses, so all edits return copies)
    # ------------------------------------------------------------------
    def with_l1(self, l1: CacheConfig) -> "SimulationConfig":
        return replace(self, hierarchy=replace(self.hierarchy, l1=l1))

    def with_filter(self, **kwargs: Any) -> "SimulationConfig":
        return replace(self, filter=replace(self.filter, **kwargs))

    def with_prefetch(self, **kwargs: Any) -> "SimulationConfig":
        return replace(self, prefetch=replace(self.prefetch, **kwargs))

    def with_buffer(self, enabled: bool = True, entries: int = 16) -> "SimulationConfig":
        return replace(self, prefetch_buffer=PrefetchBufferConfig(enabled=enabled, entries=entries))

    def with_warmup(self, instructions: int) -> "SimulationConfig":
        return replace(self, warmup_instructions=instructions)

    def with_engine(self, engine: str) -> "SimulationConfig":
        return replace(self, engine=engine)

    def with_sanitize(self, enabled: bool = True) -> "SimulationConfig":
        return replace(self, sanitize=enabled)

    # ------------------------------------------------------------------
    # Plain-dict round trip (shared-FS work queue, job files)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The config as JSON-serialisable plain data (enums by value).

        It keeps every field, ``sanitize`` included: a full round trip
        for shipping configs through queue files, which :meth:`from_dict`
        inverts exactly.  The result cache keys runs on this encoding
        minus ``sanitize`` (:func:`repro.analysis.result_cache
        .config_fingerprint`).
        """
        import dataclasses as _dc

        def canonical(obj: Any) -> Any:
            if isinstance(obj, enum.Enum):
                return obj.value
            if isinstance(obj, dict):
                return {str(k): canonical(v) for k, v in obj.items()}
            if isinstance(obj, (list, tuple)):
                return [canonical(v) for v in obj]
            return obj

        return canonical(_dc.asdict(self))

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationConfig":
        """Rebuild a config from :meth:`to_dict` output (validates on build)."""
        filter_fields = dict(data["filter"])
        filter_fields["kind"] = FilterKind(filter_fields["kind"])
        return cls(
            processor=ProcessorConfig(**data["processor"]),
            hierarchy=HierarchyConfig(
                l1=CacheConfig(**data["hierarchy"]["l1"]),
                l2=CacheConfig(**data["hierarchy"]["l2"]),
                memory_latency=data["hierarchy"]["memory_latency"],
                bus_bytes=data["hierarchy"]["bus_bytes"],
                mshr_entries=data["hierarchy"]["mshr_entries"],
            ),
            prefetch=PrefetchConfig(**data["prefetch"]),
            filter=FilterConfig(**filter_fields),
            prefetch_buffer=PrefetchBufferConfig(**data["prefetch_buffer"]),
            max_instructions=data.get("max_instructions"),
            warmup_instructions=data.get("warmup_instructions", 0),
            engine=data.get("engine", "pipeline"),
            sanitize=data.get("sanitize", False),
        )

    def describe(self) -> str:
        """Render the configuration as a Table 1-style text block."""
        p, h, f = self.processor, self.hierarchy, self.filter
        lines = [
            "Processor",
            f"  Issue/Retire      {p.issue_width} inst/cycle",
            f"  Reorder Buffer    {p.rob_entries} entries",
            f"  Load/Store Queue  {p.lsq_entries} entries",
            f"  Branch Predictor  Bimodal, {p.branch_predictor_entries} entries",
            f"  BTB               {p.btb_ways}-way, {p.btb_sets} sets",
            "Caches",
            f"  L1 D              {h.l1.size_bytes // 1024}KB, {h.l1.line_bytes}B line, "
            f"{'direct-mapped' if h.l1.ways == 1 else f'{h.l1.ways}-way'}, {h.l1.latency} cycle(s)",
            f"  L1 D ports        {h.l1.ports}",
            f"  L2                {h.l2.size_bytes // 1024}KB, {h.l2.line_bytes}B line, "
            f"{h.l2.ways}-way, {h.l2.latency} cycles",
            "Memory",
            f"  Latency           {h.memory_latency} core cycles",
            f"  Bus               {h.bus_bytes}-byte wide",
            "Prefetcher",
            f"  Queue Length      {self.prefetch.queue_entries} entries",
            "Pollution Filter",
            f"  Kind              {f.kind.value}",
            f"  History table     {f.table_bytes}B, {f.table_entries} entries",
        ]
        return "\n".join(lines)
