//! The nine metric transfer functions, as a symbolic IR and its one
//! evaluator.
//!
//! Every metric is written down here as an expression tree over
//! *dimensioned* leaves: probe-measured rates (FLOP/s, bytes/s,
//! updates/s), trace-derived operation counts (FLOPs, bytes), piecewise
//! MAPS curve lookups, and time sums over basic blocks and MPI census
//! entries. The same trees are what predictions run, and what two static
//! analyses read without measuring or convolving anything:
//!
//! * **Evaluation** (`eval`) — one walk over the tree, generic over a
//!   value `Domain`: plain `f64` ([`eval_cost`], [`eval_prediction`]),
//!   a two-lane `(target, base)` pair that
//!   [`predict_all`](crate::prediction::predict_all) folds each metric's
//!   cost tree through once, and the interval-plus-derivative value of
//!   [`crate::sensitivity`]. Leaf reading, block and census sums, the
//!   comm-op switch, and the dependency-label → MAPS-flavor mapping are
//!   written once, here.
//! * **Dimension checking** ([`Expr::dim`]) — folds the exponent vector of
//!   every node and rejects sums, overlaps (`max`), or comm-op switches
//!   whose arms disagree. `metasim lint` uses this to prove that each
//!   metric's base-calibrated prediction (Equation 1 applied to the cost
//!   ratio) reduces to exactly seconds, and that a seeded wrong-unit
//!   formula (multiply instead of divide in Equation 1) cannot.
//! * **Dataflow extraction** ([`Expr::probe_quantities`]) — which probe
//!   measurements a formula actually consumes, so the lint can flag
//!   metrics referencing unmeasured quantities and measurements no metric
//!   reads.
//!
//! Because the lint, the sensitivity analysis, and the predictions all
//! read the same trees through the same walk, what `metasim lint` and
//! `metasim sense` prove is about the code that predicts.
//!
//! "Operation counts, once determined by tracing, are divided by
//! corresponding operation rates … to yield an execution time for the
//! current basic block per operation type. Execution time is subsequently
//! 'predicted' by summing the estimated execution time for all basic blocks
//! and carefully taking into account the overlap of the different operation
//! types" (§3). The overlap model: within a block, floating-point and
//! memory work fully overlap (`max`). That is deliberately more optimistic
//! than the ground truth's partial overlap — the convolver is a model, and
//! the gap is one of its honest error sources.

use std::cell::RefCell;
use std::fmt;
use std::sync::OnceLock;

use metasim_probes::maps::DependencyFlavor;
use metasim_probes::suite::MachineProbes;
use metasim_tracer::block::{DependencyClass, TracedBlock};
use metasim_tracer::counters::HardwareCounters;
use metasim_tracer::trace::ApplicationTrace;
use metasim_units::Seconds;

use metasim_netsim::replay::{CommEvent, CommOp};

use crate::metric::MetricId;

/// Bytes per memory reference (double precision).
pub(crate) const REF_BYTES: f64 = 8.0;

// ---------------------------------------------------------------------------
// Dimensions
// ---------------------------------------------------------------------------

/// Exponent vector over the study's base dimensions.
///
/// A quantity's dimension is `s^time · flop^flop · B^byte · up^update`.
/// Rates carry negative time exponents: STREAM bandwidth is
/// `{ time: -1, byte: 1 }`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dim {
    /// Exponent of seconds.
    pub time: i8,
    /// Exponent of floating-point operations.
    pub flop: i8,
    /// Exponent of bytes.
    pub byte: i8,
    /// Exponent of GUPS-style memory updates.
    pub update: i8,
}

impl Dim {
    /// Dimensionless.
    pub const NONE: Dim = Dim::new(0, 0, 0, 0);
    /// Seconds — what every prediction must reduce to.
    pub const TIME: Dim = Dim::new(1, 0, 0, 0);
    /// Floating-point operations.
    pub const FLOPS: Dim = Dim::new(0, 1, 0, 0);
    /// Bytes.
    pub const BYTES: Dim = Dim::new(0, 0, 1, 0);
    /// FLOP/s (HPL Rmax).
    pub const FLOP_RATE: Dim = Dim::new(-1, 1, 0, 0);
    /// Bytes/s (STREAM, MAPS, NETBENCH bandwidth).
    pub const BYTE_RATE: Dim = Dim::new(-1, 0, 1, 0);
    /// Updates/s (GUPS).
    pub const UPDATE_RATE: Dim = Dim::new(-1, 0, 0, 1);

    const fn new(time: i8, flop: i8, byte: i8, update: i8) -> Self {
        Dim {
            time,
            flop,
            byte,
            update,
        }
    }

    /// Dimension of a reciprocal.
    #[must_use]
    pub fn recip(self) -> Dim {
        Dim::new(-self.time, -self.flop, -self.byte, -self.update)
    }
}

/// Dimension of a product.
impl std::ops::Mul for Dim {
    type Output = Dim;
    fn mul(self, rhs: Dim) -> Dim {
        Dim::new(
            self.time + rhs.time,
            self.flop + rhs.flop,
            self.byte + rhs.byte,
            self.update + rhs.update,
        )
    }
}

/// Dimension of a quotient.
impl std::ops::Div for Dim {
    type Output = Dim;
    fn div(self, rhs: Dim) -> Dim {
        Dim::new(
            self.time - rhs.time,
            self.flop - rhs.flop,
            self.byte - rhs.byte,
            self.update - rhs.update,
        )
    }
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let units = [
            ("s", self.time),
            ("flop", self.flop),
            ("B", self.byte),
            ("up", self.update),
        ];
        let num: Vec<String> = units
            .iter()
            .filter(|(_, e)| *e > 0)
            .map(|(u, e)| {
                if *e == 1 {
                    (*u).to_string()
                } else {
                    format!("{u}^{e}")
                }
            })
            .collect();
        let den: Vec<String> = units
            .iter()
            .filter(|(_, e)| *e < 0)
            .map(|(u, e)| {
                if *e == -1 {
                    (*u).to_string()
                } else {
                    format!("{u}^{}", -e)
                }
            })
            .collect();
        match (num.is_empty(), den.is_empty()) {
            (true, true) => write!(f, "1"),
            (false, true) => write!(f, "{}", num.join("·")),
            (true, false) => write!(f, "1/{}", den.join("·")),
            (false, false) => write!(f, "{}/{}", num.join("·"), den.join("·")),
        }
    }
}

/// A dimension-checking failure, with a human-readable explanation of which
/// node disagreed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimError(pub String);

impl fmt::Display for DimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

// ---------------------------------------------------------------------------
// Leaves
// ---------------------------------------------------------------------------

/// A probe-measured rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RateSource {
    /// HPL per-processor Rmax, FLOP/s.
    HplRmax,
    /// STREAM triad bandwidth, bytes/s.
    StreamBandwidth,
    /// GUPS update rate, updates/s.
    GupsUpdateRate,
    /// GUPS effective bandwidth, bytes/s.
    GupsEffectiveBandwidth,
    /// NETBENCH delivered bandwidth, bytes/s.
    NetBandwidth,
}

/// A probe-measured time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimeSource {
    /// NETBENCH one-way small-message latency, seconds.
    NetLatency,
    /// NETBENCH 8-byte 64-process `all_reduce` score, seconds.
    NetAllreduce64,
    /// The measured base-system runtime (Equation 1's `T(X₀)`).
    BaseRuntime,
}

/// A trace-derived operation count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CountSource {
    /// Whole-trace FLOPs (basic-block structure visible).
    TracedFlops,
    /// Whole-run FLOPs as a hardware counter total (no block structure).
    CounterFlops,
    /// Whole-run memory traffic from counters: references × 8 bytes.
    CounterBytes,
    /// Whole-trace strided (unit + short) bytes from the stride bins.
    StridedBytes,
    /// Whole-trace random bytes from the stride bins.
    RandomBytes,
    /// Current block's FLOPs.
    BlockFlops,
    /// Current block's strided bytes.
    BlockStridedBytes,
    /// Current block's random bytes.
    BlockRandomBytes,
    /// Current block's invocation count (dimensionless weight).
    BlockInvocations,
    /// Current MPI census entry's occurrence count (dimensionless).
    EventCount,
    /// Current MPI census entry's payload bytes.
    EventBytes,
    /// `all_reduce` payload beyond the measured 8 bytes, scaled by the
    /// doubling-stage count — a byte total moved at NETBENCH bandwidth.
    AllreduceExtraBytes,
}

/// A dimensionless runtime scalar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScaleSource {
    /// `ceil(log2 p)` (0 when `p ≤ 1`): collective tree depth.
    LogProcs,
    /// `p − 1`: all-to-all fan-out.
    ProcsMinusOne,
    /// `max(log2(p)/6, 0.17)`: `all_reduce` score scaling from the measured
    /// 64-process configuration.
    AllreduceLogScale,
}

/// Which MPI operation an [`Expr::OpSwitch`] arm models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommOpKind {
    /// Send/recv pair.
    PointToPoint,
    /// Barrier.
    Barrier,
    /// All-reduce.
    AllReduce,
    /// Broadcast or reduce (same tree-of-p2p model).
    BroadcastOrReduce,
    /// All-to-all.
    AllToAll,
}

impl CommOpKind {
    pub(crate) fn matches(self, op: CommOp) -> bool {
        matches!(
            (self, op),
            (CommOpKind::PointToPoint, CommOp::PointToPoint { .. })
                | (CommOpKind::Barrier, CommOp::Barrier)
                | (CommOpKind::AllReduce, CommOp::AllReduce { .. })
                | (
                    CommOpKind::BroadcastOrReduce,
                    CommOp::Broadcast { .. } | CommOp::Reduce { .. }
                )
                | (CommOpKind::AllToAll, CommOp::AllToAll { .. })
        )
    }
}

/// A probe quantity a formula can reference — the dataflow-graph node the
/// lint reasons about. Coarser than the leaf enums: the five MAPS /
/// ENHANCED MAPS curves count as one measured artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeQuantity {
    /// HPL Rmax.
    HplRmax,
    /// STREAM bandwidth.
    StreamBandwidth,
    /// GUPS update rate.
    GupsUpdateRate,
    /// GUPS effective bandwidth.
    GupsEffectiveBandwidth,
    /// The MAPS / ENHANCED MAPS bandwidth curve set.
    MapsCurves,
    /// NETBENCH latency.
    NetLatency,
    /// NETBENCH bandwidth.
    NetBandwidth,
    /// NETBENCH 64-process `all_reduce` score.
    NetAllreduce64,
}

impl ProbeQuantity {
    /// Every quantity the shipped probe suite measures.
    pub const ALL: [ProbeQuantity; 8] = [
        ProbeQuantity::HplRmax,
        ProbeQuantity::StreamBandwidth,
        ProbeQuantity::GupsUpdateRate,
        ProbeQuantity::GupsEffectiveBandwidth,
        ProbeQuantity::MapsCurves,
        ProbeQuantity::NetLatency,
        ProbeQuantity::NetBandwidth,
        ProbeQuantity::NetAllreduce64,
    ];

    /// The probe that measures this quantity — used in lint messages.
    #[must_use]
    pub fn probe(self) -> &'static str {
        match self {
            ProbeQuantity::HplRmax => "HPL",
            ProbeQuantity::StreamBandwidth => "STREAM",
            ProbeQuantity::GupsUpdateRate | ProbeQuantity::GupsEffectiveBandwidth => "GUPS",
            ProbeQuantity::MapsCurves => "MAPS/ENHANCED MAPS",
            ProbeQuantity::NetLatency
            | ProbeQuantity::NetBandwidth
            | ProbeQuantity::NetAllreduce64 => "NETBENCH",
        }
    }
}

impl fmt::Display for ProbeQuantity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProbeQuantity::HplRmax => "hpl-rmax",
            ProbeQuantity::StreamBandwidth => "stream-bandwidth",
            ProbeQuantity::GupsUpdateRate => "gups-update-rate",
            ProbeQuantity::GupsEffectiveBandwidth => "gups-effective-bandwidth",
            ProbeQuantity::MapsCurves => "maps-curves",
            ProbeQuantity::NetLatency => "net-latency",
            ProbeQuantity::NetBandwidth => "net-bandwidth",
            ProbeQuantity::NetAllreduce64 => "net-allreduce-64p",
        };
        write!(f, "{s}")
    }
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

/// One node of a metric formula.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A dimensionless constant.
    Const(f64),
    /// A trace-derived operation count.
    Count(CountSource),
    /// A probe-measured rate.
    Rate(RateSource),
    /// A probe-measured time.
    Time(TimeSource),
    /// A dimensionless runtime scalar.
    Scale(ScaleSource),
    /// Piecewise MAPS bandwidth-curve lookup at the current block's working
    /// set. The flavor (plain vs ENHANCED) comes from the enclosing
    /// [`Expr::BlockSum`]'s dependency label.
    Curve {
        /// `true` → random-access curve, `false` → unit-stride curve.
        random: bool,
    },
    /// `1 / x` — how simple-metric costs invert benchmark rates.
    Recip(Box<Expr>),
    /// `a / b` — a count divided by a rate, or Equation 1's cost ratio.
    Ratio(Box<Expr>, Box<Expr>),
    /// `a · b`.
    Mul(Box<Expr>, Box<Expr>),
    /// `Σ terms` — arms must agree dimensionally (a weighted sum once the
    /// dimensionless weights are folded into the terms).
    Sum(Vec<Expr>),
    /// `max(a, b)` — the full-overlap model; arms must agree dimensionally.
    Max(Box<Expr>, Box<Expr>),
    /// Time-sum over traced basic blocks. `labeled` selects ENHANCED MAPS
    /// curve flavors from the dependency labels (Metric #9); unlabeled
    /// sums use the independent curves (#7, #8).
    BlockSum {
        /// Whether dependency labels steer the curve selection.
        labeled: bool,
        /// Per-block cost.
        body: Box<Expr>,
    },
    /// Time-sum over the MPI census.
    CommSum(Box<Expr>),
    /// Per-operation dispatch inside a [`Expr::CommSum`]; every arm must
    /// reduce to the same dimension.
    OpSwitch(Vec<(CommOpKind, Expr)>),
    /// Re-evaluate the inner cost on the *base* machine's probes —
    /// Equation 1's denominator `C(metric, X₀)`.
    OnBase(Box<Expr>),
}

impl Expr {
    fn ratio(a: Expr, b: Expr) -> Expr {
        Expr::Ratio(Box::new(a), Box::new(b))
    }

    fn mul(a: Expr, b: Expr) -> Expr {
        Expr::Mul(Box::new(a), Box::new(b))
    }

    fn max(a: Expr, b: Expr) -> Expr {
        Expr::Max(Box::new(a), Box::new(b))
    }

    /// The node's dimension, or an error naming the first inconsistent
    /// subexpression (a sum/overlap/switch whose arms disagree).
    pub fn dim(&self) -> Result<Dim, DimError> {
        match self {
            Expr::Const(_) | Expr::Scale(_) => Ok(Dim::NONE),
            Expr::Count(c) => Ok(match c {
                CountSource::TracedFlops | CountSource::CounterFlops | CountSource::BlockFlops => {
                    Dim::FLOPS
                }
                CountSource::CounterBytes
                | CountSource::StridedBytes
                | CountSource::RandomBytes
                | CountSource::BlockStridedBytes
                | CountSource::BlockRandomBytes
                | CountSource::EventBytes
                | CountSource::AllreduceExtraBytes => Dim::BYTES,
                CountSource::BlockInvocations | CountSource::EventCount => Dim::NONE,
            }),
            Expr::Rate(r) => Ok(match r {
                RateSource::HplRmax => Dim::FLOP_RATE,
                RateSource::StreamBandwidth
                | RateSource::GupsEffectiveBandwidth
                | RateSource::NetBandwidth => Dim::BYTE_RATE,
                RateSource::GupsUpdateRate => Dim::UPDATE_RATE,
            }),
            Expr::Time(_) => Ok(Dim::TIME),
            Expr::Curve { .. } => Ok(Dim::BYTE_RATE),
            Expr::Recip(e) => Ok(e.dim()?.recip()),
            Expr::Ratio(a, b) => Ok(a.dim()? / b.dim()?),
            Expr::Mul(a, b) => Ok(a.dim()? * b.dim()?),
            Expr::Sum(terms) => {
                let mut dims = terms.iter().map(Expr::dim);
                let first = dims
                    .next()
                    .ok_or_else(|| DimError("empty sum has no dimension".into()))??;
                for d in dims {
                    let d = d?;
                    if d != first {
                        return Err(DimError(format!(
                            "sum mixes incompatible dimensions: {first} vs {d}"
                        )));
                    }
                }
                Ok(first)
            }
            Expr::Max(a, b) => {
                let (da, db) = (a.dim()?, b.dim()?);
                if da != db {
                    return Err(DimError(format!(
                        "overlap max() compares incompatible dimensions: {da} vs {db}"
                    )));
                }
                Ok(da)
            }
            Expr::BlockSum { body, .. } | Expr::CommSum(body) | Expr::OnBase(body) => body.dim(),
            Expr::OpSwitch(arms) => {
                let mut dims = arms.iter().map(|(_, e)| e.dim());
                let first = dims
                    .next()
                    .ok_or_else(|| DimError("empty op switch has no dimension".into()))??;
                for d in dims {
                    let d = d?;
                    if d != first {
                        return Err(DimError(format!(
                            "comm-op switch arms disagree: {first} vs {d}"
                        )));
                    }
                }
                Ok(first)
            }
        }
    }

    /// Every probe quantity this formula reads, deduplicated, in first-use
    /// order — the probe→convolution edges of the dataflow graph.
    #[must_use]
    pub fn probe_quantities(&self) -> Vec<ProbeQuantity> {
        let mut out = Vec::new();
        self.collect_quantities(&mut out);
        out
    }

    fn collect_quantities(&self, out: &mut Vec<ProbeQuantity>) {
        if let Some(q) = self.quantity() {
            if !out.contains(&q) {
                out.push(q);
            }
        }
        for child in self.children() {
            child.collect_quantities(out);
        }
    }

    /// The probe quantity a leaf reads; `None` for every other node.
    fn quantity(&self) -> Option<ProbeQuantity> {
        match self {
            Expr::Rate(r) => Some(r.quantity()),
            Expr::Time(t) => t.quantity(),
            Expr::Curve { .. } => Some(ProbeQuantity::MapsCurves),
            _ => None,
        }
    }

    /// The node's direct subexpressions, in evaluation order.
    fn children(&self) -> Vec<&Expr> {
        match self {
            Expr::Const(_)
            | Expr::Count(_)
            | Expr::Rate(_)
            | Expr::Time(_)
            | Expr::Scale(_)
            | Expr::Curve { .. } => Vec::new(),
            Expr::Recip(e)
            | Expr::OnBase(e)
            | Expr::CommSum(e)
            | Expr::BlockSum { body: e, .. } => {
                vec![e]
            }
            Expr::Ratio(a, b) | Expr::Mul(a, b) | Expr::Max(a, b) => vec![a, b],
            Expr::Sum(terms) => terms.iter().collect(),
            Expr::OpSwitch(arms) => arms.iter().map(|(_, e)| e).collect(),
        }
    }

    /// Whether any node of the tree satisfies `pred`.
    fn any(&self, pred: &impl Fn(&Expr) -> bool) -> bool {
        pred(self) || self.children().into_iter().any(|c| c.any(pred))
    }

    /// Whether the formula contains a label-steered (ENHANCED MAPS)
    /// block sum — the transfer function with per-dependency-class
    /// branches.
    #[must_use]
    pub fn has_labeled_curves(&self) -> bool {
        self.any(&|e| matches!(e, Expr::BlockSum { labeled: true, .. }))
    }

    /// Whether the formula reads the base system's measured runtime
    /// (Equation 1's `T(X₀)` leaf) — the edge that makes every prediction
    /// depend on the base machine's ground-truth run in the study's
    /// dataflow graph.
    #[must_use]
    pub fn uses_base_runtime(&self) -> bool {
        self.any(&|e| matches!(e, Expr::Time(TimeSource::BaseRuntime)))
    }
}

// ---------------------------------------------------------------------------
// The nine formulas
// ---------------------------------------------------------------------------

/// One block's convolved cost: `max(flop_t, mem_t) · invocations`, with the
/// memory time split across the unit-stride and random curves.
fn block_cost_expr() -> Expr {
    let flop_t = Expr::ratio(
        Expr::Count(CountSource::BlockFlops),
        Expr::Rate(RateSource::HplRmax),
    );
    let mem_t = Expr::Sum(vec![
        Expr::ratio(
            Expr::Count(CountSource::BlockStridedBytes),
            Expr::Curve { random: false },
        ),
        Expr::ratio(
            Expr::Count(CountSource::BlockRandomBytes),
            Expr::Curve { random: true },
        ),
    ]);
    Expr::mul(
        Expr::max(flop_t, mem_t),
        Expr::Count(CountSource::BlockInvocations),
    )
}

/// The per-block time sum of metrics #7–#9.
fn maps_cost_expr(labeled: bool) -> Expr {
    Expr::BlockSum {
        labeled,
        body: Box::new(block_cost_expr()),
    }
}

/// The MPI-census network term of metrics #8–#9: per-event counts times a
/// per-operation modelled time, all from NETBENCH's *measured* latency and
/// bandwidth — coarser than the machine's true network behaviour, an
/// honest modelling gap.
fn network_cost_expr() -> Expr {
    let p2p = || {
        Expr::Sum(vec![
            Expr::Time(TimeSource::NetLatency),
            Expr::ratio(
                Expr::Count(CountSource::EventBytes),
                Expr::Rate(RateSource::NetBandwidth),
            ),
        ])
    };
    let arms = vec![
        (CommOpKind::PointToPoint, p2p()),
        (
            CommOpKind::Barrier,
            Expr::mul(
                Expr::Scale(ScaleSource::LogProcs),
                Expr::Time(TimeSource::NetLatency),
            ),
        ),
        (
            CommOpKind::AllReduce,
            Expr::Sum(vec![
                Expr::mul(
                    Expr::Scale(ScaleSource::AllreduceLogScale),
                    Expr::Time(TimeSource::NetAllreduce64),
                ),
                Expr::ratio(
                    Expr::Count(CountSource::AllreduceExtraBytes),
                    Expr::Rate(RateSource::NetBandwidth),
                ),
            ]),
        ),
        (
            CommOpKind::BroadcastOrReduce,
            Expr::mul(Expr::Scale(ScaleSource::LogProcs), p2p()),
        ),
        (
            CommOpKind::AllToAll,
            Expr::mul(Expr::Scale(ScaleSource::ProcsMinusOne), p2p()),
        ),
    ];
    Expr::CommSum(Box::new(Expr::mul(
        Expr::Count(CountSource::EventCount),
        Expr::OpSwitch(arms),
    )))
}

/// The symbolic cost `C(metric, X)`: the transfer function a prediction
/// divides by its value on the base system.
///
/// Simple metrics (#1–#3) are the reciprocal benchmark rate — a "cost"
/// whose base-calibrated ratio is exactly Equation 1. Metric #5 works from
/// counter totals, which carry no basic-block structure, so it cannot
/// credit flop/memory overlap: the two times add, which is why #5 can be
/// *worse* than STREAM alone (the paper's Table 4: 50% vs 43%). The traced
/// metrics #6–#9 use the overlap-aware `max`.
#[must_use]
pub fn cost_expr(metric: MetricId) -> Expr {
    match metric {
        MetricId::S1Hpl => Expr::Recip(Box::new(Expr::Rate(RateSource::HplRmax))),
        MetricId::S2Stream => Expr::Recip(Box::new(Expr::Rate(RateSource::StreamBandwidth))),
        MetricId::S3Gups => Expr::Recip(Box::new(Expr::Rate(RateSource::GupsUpdateRate))),
        MetricId::P4Hpl => Expr::ratio(
            Expr::Count(CountSource::TracedFlops),
            Expr::Rate(RateSource::HplRmax),
        ),
        MetricId::P5HplStream => Expr::Sum(vec![
            Expr::ratio(
                Expr::Count(CountSource::CounterFlops),
                Expr::Rate(RateSource::HplRmax),
            ),
            Expr::ratio(
                Expr::Count(CountSource::CounterBytes),
                Expr::Rate(RateSource::StreamBandwidth),
            ),
        ]),
        MetricId::P6HplStreamGups => Expr::max(
            Expr::ratio(
                Expr::Count(CountSource::TracedFlops),
                Expr::Rate(RateSource::HplRmax),
            ),
            Expr::Sum(vec![
                Expr::ratio(
                    Expr::Count(CountSource::StridedBytes),
                    Expr::Rate(RateSource::StreamBandwidth),
                ),
                Expr::ratio(
                    Expr::Count(CountSource::RandomBytes),
                    Expr::Rate(RateSource::GupsEffectiveBandwidth),
                ),
            ]),
        ),
        MetricId::P7HplMaps => maps_cost_expr(false),
        MetricId::P8HplMapsNet => Expr::Sum(vec![maps_cost_expr(false), network_cost_expr()]),
        MetricId::P9HplMapsNetDep => Expr::Sum(vec![maps_cost_expr(true), network_cost_expr()]),
    }
}

/// The nine cost trees, built once per process — the trees predictions walk.
pub(crate) fn cost_tree(metric: MetricId) -> &'static Expr {
    static TREES: OnceLock<[Expr; 9]> = OnceLock::new();
    &TREES.get_or_init(|| MetricId::ALL.map(cost_expr))[metric.number() - 1]
}

/// Base-calibrate a cost (Equation 1 applied to it):
///
/// ```text
/// T′(metric, X) = C(metric, X) / C(metric, X₀) · T(X₀)
/// ```
///
/// Whatever dimension the cost carries, the ratio cancels it and the
/// base-runtime factor restores seconds — which is exactly what
/// `metasim lint` verifies, and what the `eq1-multiply` mutation breaks.
#[must_use]
pub fn calibrated(cost: Expr) -> Expr {
    Expr::mul(
        Expr::ratio(cost.clone(), Expr::OnBase(Box::new(cost))),
        Expr::Time(TimeSource::BaseRuntime),
    )
}

/// The base-calibrated prediction formula of `metric`.
#[must_use]
pub fn prediction_expr(metric: MetricId) -> Expr {
    calibrated(cost_expr(metric))
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

impl RateSource {
    /// The probe quantity this rate is.
    fn quantity(self) -> ProbeQuantity {
        match self {
            RateSource::HplRmax => ProbeQuantity::HplRmax,
            RateSource::StreamBandwidth => ProbeQuantity::StreamBandwidth,
            RateSource::GupsUpdateRate => ProbeQuantity::GupsUpdateRate,
            RateSource::GupsEffectiveBandwidth => ProbeQuantity::GupsEffectiveBandwidth,
            RateSource::NetBandwidth => ProbeQuantity::NetBandwidth,
        }
    }

    fn read(self, probes: &MachineProbes) -> f64 {
        match self {
            RateSource::HplRmax => probes.hpl.rmax_flops_per_proc().get(),
            RateSource::StreamBandwidth => probes.stream.bandwidth.get(),
            RateSource::GupsUpdateRate => probes.gups.updates_per_second.get(),
            RateSource::GupsEffectiveBandwidth => probes.gups.effective_bandwidth().get(),
            RateSource::NetBandwidth => probes.netbench.bandwidth.get(),
        }
    }
}

impl TimeSource {
    /// The probe quantity this time is; `None` for the base runtime, which
    /// is a ground-truth measurement, not a probe.
    fn quantity(self) -> Option<ProbeQuantity> {
        match self {
            TimeSource::NetLatency => Some(ProbeQuantity::NetLatency),
            TimeSource::NetAllreduce64 => Some(ProbeQuantity::NetAllreduce64),
            TimeSource::BaseRuntime => None,
        }
    }

    fn read(self, probes: &MachineProbes) -> f64 {
        match self {
            TimeSource::NetLatency => probes.netbench.latency.get(),
            TimeSource::NetAllreduce64 => probes.netbench.allreduce_64p.get(),
            TimeSource::BaseRuntime => unreachable!("the base runtime is not a probe leaf"),
        }
    }
}

/// Which way a probe leaf moves under the chaos injector's `probe-noise`
/// fault with factor `f ∈ [1−ε, 1+ε]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Band {
    /// Rates and MAPS curve points are multiplied by `f`: `x·[1−ε, 1+ε]`.
    Scaled,
    /// NETBENCH times are divided by `f` (a slower fabric takes longer):
    /// `x/[1+ε, 1−ε]`.
    Inverse,
}

/// A value domain the formula walk folds through: plain `f64`, the
/// two-lane (target, base) pair predictions use, and the sensitivity
/// analysis's interval-plus-derivative value.
pub(crate) trait Domain: Copy {
    /// A dimensionless constant, a count, or the base runtime.
    fn constant(c: f64) -> Self;
    /// A probe-measured leaf. `read` takes its value from one machine's
    /// probes; `on_base` says whether the leaf sits under an
    /// [`Expr::OnBase`].
    fn probe(
        ctx: &Ctx<'_, Self>,
        on_base: bool,
        read: impl Fn(&MachineProbes) -> f64,
        q: ProbeQuantity,
        band: Band,
    ) -> Self;
    /// `self + o`.
    fn add(self, o: Self) -> Self;
    /// `self · o`.
    fn mul(self, o: Self) -> Self;
    /// `self / o`.
    fn div(self, o: Self) -> Self;
    /// `max(self, o)`, left-biased on ties like `f64::max`.
    fn max(self, o: Self) -> Self;
}

impl Domain for f64 {
    fn constant(c: f64) -> f64 {
        c
    }
    fn probe(
        ctx: &Ctx<'_, Self>,
        on_base: bool,
        read: impl Fn(&MachineProbes) -> f64,
        _: ProbeQuantity,
        _: Band,
    ) -> f64 {
        read(ctx.machine(on_base))
    }
    fn add(self, o: f64) -> f64 {
        self + o
    }
    fn mul(self, o: f64) -> f64 {
        self * o
    }
    fn div(self, o: f64) -> f64 {
        self / o
    }
    fn max(self, o: f64) -> f64 {
        f64::max(self, o)
    }
}

/// Two lanes walked in step: lane 0 reads the machine the walk is on,
/// lane 1 always reads the base. A cost tree walked once gives
/// `(C(X), C(X₀))`, Equation 1's numerator and denominator.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lanes(pub(crate) f64, pub(crate) f64);

impl Domain for Lanes {
    fn constant(c: f64) -> Lanes {
        Lanes(c, c)
    }
    fn probe(
        ctx: &Ctx<'_, Self>,
        on_base: bool,
        read: impl Fn(&MachineProbes) -> f64,
        _: ProbeQuantity,
        _: Band,
    ) -> Lanes {
        Lanes(read(ctx.machine(on_base)), read(ctx.machine(true)))
    }
    fn add(self, o: Lanes) -> Lanes {
        Lanes(self.0 + o.0, self.1 + o.1)
    }
    fn mul(self, o: Lanes) -> Lanes {
        Lanes(self.0 * o.0, self.1 * o.1)
    }
    fn div(self, o: Lanes) -> Lanes {
        Lanes(self.0 / o.0, self.1 / o.1)
    }
    fn max(self, o: Lanes) -> Lanes {
        Lanes(self.0.max(o.0), self.1.max(o.1))
    }
}

/// What one walk reads: the machines' probes, the trace, its dependency
/// labels, the base runtime, and the interval band.
pub(crate) struct Ctx<'a, D> {
    target: &'a MachineProbes,
    base: Option<&'a MachineProbes>,
    pub(crate) trace: &'a ApplicationTrace,
    labels: &'a [DependencyClass],
    base_time: Option<Seconds>,
    /// Half-width of the ±ε band the interval domain puts around every
    /// probe leaf; the other domains ignore it.
    pub(crate) eps: f64,
    /// Whole-trace counts: FLOPs, counter bytes, strided and random bytes.
    flops: f64,
    counter_bytes: f64,
    strided_bytes: f64,
    random_bytes: f64,
    /// Block and census sums already walked, by subtree and side: #8
    /// repeats #7's block sum and #9 repeats #8's network term, so a
    /// context shared across metrics looks the repeat up.
    sums: RefCell<Vec<(&'a Expr, bool, D)>>,
}

impl<'a, D: Domain> Ctx<'a, D> {
    /// A walk context over `target` (and, for `OnBase` nodes or two-lane
    /// walks, `base`).
    pub(crate) fn new(
        target: &'a MachineProbes,
        base: Option<&'a MachineProbes>,
        trace: &'a ApplicationTrace,
        labels: &'a [DependencyClass],
        base_time: Option<Seconds>,
        eps: f64,
    ) -> Self {
        let counters = HardwareCounters::from_trace(trace);
        let bins = trace.aggregate_bins();
        Ctx {
            target,
            base,
            trace,
            labels,
            base_time,
            eps,
            flops: counters.flops as f64,
            counter_bytes: counters.mem_refs as f64 * REF_BYTES,
            strided_bytes: (bins.stride1 + bins.short) as f64 * REF_BYTES,
            random_bytes: bins.random as f64 * REF_BYTES,
            sums: RefCell::new(Vec::new()),
        }
    }

    /// The probes a leaf reads: the target's, or the base's under `OnBase`.
    pub(crate) fn machine(&self, on_base: bool) -> &'a MachineProbes {
        if on_base {
            self.base
                .expect("OnBase leaf in a single-machine evaluation")
        } else {
            self.target
        }
    }

    fn processes(&self) -> u64 {
        self.trace.mpi.processes
    }
}

/// Where in the tree the walk is: which side of `OnBase`, and the current
/// block (with its curve flavor) or census entry.
#[derive(Clone, Copy, Default)]
struct At<'a> {
    on_base: bool,
    block: Option<(&'a TracedBlock, DependencyFlavor)>,
    event: Option<&'a CommEvent>,
}

impl At<'_> {
    fn block(&self) -> (&TracedBlock, DependencyFlavor) {
        self.block.expect("block leaf outside a BlockSum")
    }

    fn event(&self) -> &CommEvent {
        self.event.expect("event leaf outside a CommSum")
    }

    fn event_bytes(&self) -> u64 {
        match self.event().op {
            CommOp::PointToPoint { bytes }
            | CommOp::AllReduce { bytes }
            | CommOp::Broadcast { bytes }
            | CommOp::Reduce { bytes }
            | CommOp::AllToAll { bytes } => bytes,
            CommOp::Barrier => 0,
        }
    }
}

/// The MAPS curve flavor a dependency label selects (ENHANCED MAPS).
fn flavor(class: DependencyClass) -> DependencyFlavor {
    match class {
        DependencyClass::Independent => DependencyFlavor::Independent,
        DependencyClass::Chained => DependencyFlavor::Chained,
        DependencyClass::Branchy => DependencyFlavor::Branchy,
    }
}

/// Interpret `expr` against one machine's probes and the application
/// trace: the cost `C(metric, X)` of a [`cost_expr`] tree.
#[must_use]
pub fn eval_cost(
    expr: &Expr,
    probes: &MachineProbes,
    trace: &ApplicationTrace,
    labels: &[DependencyClass],
) -> f64 {
    eval(expr, &Ctx::new(probes, None, trace, labels, None, 0.0))
}

/// Interpret a [`prediction_expr`] tree: the target/base cost ratio times
/// the measured base runtime.
#[must_use]
pub fn eval_prediction(
    expr: &Expr,
    target: &MachineProbes,
    base: &MachineProbes,
    trace: &ApplicationTrace,
    labels: &[DependencyClass],
    base_time: Seconds,
) -> Seconds {
    let ctx = Ctx::new(target, Some(base), trace, labels, Some(base_time), 0.0);
    Seconds::new(eval(expr, &ctx))
}

/// Fold `expr` through the value domain `D` — the one evaluator of the
/// nine transfer functions.
pub(crate) fn eval<'a, D: Domain>(expr: &'a Expr, ctx: &Ctx<'a, D>) -> D {
    walk(expr, ctx, &At::default())
}

fn walk<'a, D: Domain>(expr: &'a Expr, ctx: &Ctx<'a, D>, at: &At<'a>) -> D {
    match expr {
        Expr::Recip(e) => D::constant(1.0).div(walk(e, ctx, at)),
        Expr::Ratio(a, b) => walk::<D>(a, ctx, at).div(walk(b, ctx, at)),
        Expr::Mul(a, b) => walk::<D>(a, ctx, at).mul(walk(b, ctx, at)),
        // Left fold; `reduce` keeps two-term sums literally `a + b`.
        Expr::Sum(terms) => terms
            .iter()
            .map(|t| walk::<D>(t, ctx, at))
            .reduce(D::add)
            .unwrap_or_else(|| D::constant(0.0)),
        Expr::Max(a, b) => walk::<D>(a, ctx, at).max(walk(b, ctx, at)),
        Expr::BlockSum { labeled, body } => {
            summed(expr, ctx, at, || block_sum(*labeled, body, ctx, at))
        }
        Expr::CommSum(body) => summed(expr, ctx, at, || comm_sum(body, ctx, at)),
        Expr::OpSwitch(arms) => op_switch(arms, ctx, at),
        Expr::OnBase(e) => {
            assert!(
                ctx.base.is_some(),
                "OnBase leaf in a single-machine evaluation"
            );
            walk(
                e,
                ctx,
                &At {
                    on_base: true,
                    ..*at
                },
            )
        }
        _ => leaf(expr, ctx, at),
    }
}

fn leaf<D: Domain>(expr: &Expr, ctx: &Ctx<'_, D>, at: &At<'_>) -> D {
    match expr {
        Expr::Const(c) => D::constant(*c),
        Expr::Rate(r) => D::probe(ctx, at.on_base, |p| r.read(p), r.quantity(), Band::Scaled),
        Expr::Time(TimeSource::BaseRuntime) => D::constant(
            ctx.base_time
                .expect("BaseRuntime leaf in a cost-only evaluation")
                .get(),
        ),
        Expr::Time(t) => D::probe(
            ctx,
            at.on_base,
            |p| t.read(p),
            t.quantity().expect("a NETBENCH time"),
            Band::Inverse,
        ),
        Expr::Scale(s) => {
            let p = ctx.processes();
            D::constant(match s {
                ScaleSource::LogProcs if p <= 1 => 0.0,
                ScaleSource::LogProcs => (p as f64).log2().ceil(),
                ScaleSource::ProcsMinusOne => p.saturating_sub(1) as f64,
                ScaleSource::AllreduceLogScale => ((p as f64).log2() / 6.0).max(0.17),
            })
        }
        Expr::Count(c) => D::constant(match c {
            CountSource::TracedFlops | CountSource::CounterFlops => ctx.flops,
            CountSource::CounterBytes => ctx.counter_bytes,
            CountSource::StridedBytes => ctx.strided_bytes,
            CountSource::RandomBytes => ctx.random_bytes,
            CountSource::BlockFlops => at.block().0.flops as f64,
            CountSource::BlockStridedBytes => {
                let bins = &at.block().0.bins;
                (bins.stride1 + bins.short) as f64 * REF_BYTES
            }
            CountSource::BlockRandomBytes => at.block().0.bins.random as f64 * REF_BYTES,
            CountSource::BlockInvocations => at.block().0.invocations as f64,
            CountSource::EventCount => at.event().count as f64,
            CountSource::EventBytes => at.event_bytes() as f64,
            CountSource::AllreduceExtraBytes => {
                let extra = at.event_bytes().saturating_sub(8) as f64;
                (ctx.processes() as f64).log2().ceil() * extra
            }
        }),
        Expr::Curve { random } => {
            // Probe noise scales every curve point by one factor, and the
            // lookup's log-linear interpolation is linear in the point
            // bandwidths, so the perturbed lookup is exactly x·f.
            let (block, flavor) = at.block();
            let ws = block.working_set.max(1);
            D::probe(
                ctx,
                at.on_base,
                |p| p.maps.curve(*random, flavor).bandwidth_at(ws).get(),
                ProbeQuantity::MapsCurves,
                Band::Scaled,
            )
        }
        _ => unreachable!("interior node at a leaf"),
    }
}

/// A block or census sum, looked up if this context already walked an
/// equal one on the same side.
fn summed<'a, D: Domain>(
    expr: &'a Expr,
    ctx: &Ctx<'a, D>,
    at: &At<'a>,
    sum: impl FnOnce() -> D,
) -> D {
    if at.block.is_some() || at.event.is_some() {
        return sum();
    }
    let seen = |(e, on_base, _): &&(&Expr, bool, D)| {
        *on_base == at.on_base && (std::ptr::eq(*e, expr) || *e == expr)
    };
    if let Some(&(_, _, v)) = ctx.sums.borrow().iter().find(seen) {
        return v;
    }
    let v = sum();
    ctx.sums.borrow_mut().push((expr, at.on_base, v));
    v
}

fn block_sum<'a, D: Domain>(labeled: bool, body: &'a Expr, ctx: &Ctx<'a, D>, at: &At<'a>) -> D {
    if labeled {
        assert_eq!(
            ctx.labels.len(),
            ctx.trace.blocks.len(),
            "dependency labels must be parallel to blocks"
        );
    }
    let mut total = D::constant(0.0);
    for (i, block) in ctx.trace.blocks.iter().enumerate() {
        let f = if labeled {
            flavor(ctx.labels[i])
        } else {
            DependencyFlavor::Independent
        };
        let inner = At {
            block: Some((block, f)),
            ..*at
        };
        total = total.add(walk(body, ctx, &inner));
    }
    total
}

fn comm_sum<'a, D: Domain>(body: &'a Expr, ctx: &Ctx<'a, D>, at: &At<'a>) -> D {
    let mut total = D::constant(0.0);
    for event in &ctx.trace.mpi.events {
        let inner = At {
            event: Some(event),
            ..*at
        };
        total = total.add(walk(body, ctx, &inner));
    }
    total
}

fn op_switch<'a, D: Domain>(arms: &'a [(CommOpKind, Expr)], ctx: &Ctx<'a, D>, at: &At<'a>) -> D {
    let op = at.event().op;
    // NETBENCH's all_reduce estimate is zero below two processes.
    if matches!(op, CommOp::AllReduce { .. }) && ctx.processes() <= 1 {
        return D::constant(0.0);
    }
    let (_, body) = arms
        .iter()
        .find(|(kind, _)| kind.matches(op))
        .expect("comm-op switch missing an arm for a traced operation");
    walk(body, ctx, at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prediction::predict_all;
    use metasim_apps::registry::{all_test_cases, TestCase};
    use metasim_apps::tracing::trace_workload;
    use metasim_machines::{fleet, MachineId};
    use metasim_probes::suite::ProbeSuite;
    use metasim_tracer::analysis::analyze_dependencies;
    use proptest::prelude::*;

    #[test]
    fn every_prediction_reduces_to_seconds() {
        for m in MetricId::ALL {
            let dim = prediction_expr(m).dim().unwrap_or_else(|e| {
                panic!("{m}: formula is dimensionally inconsistent: {e}");
            });
            assert_eq!(dim, Dim::TIME, "{m} reduces to {dim}, not seconds");
        }
    }

    #[test]
    fn cost_dimensions_match_the_transfer_functions() {
        // Simple metrics invert a rate; predictive metrics are real times.
        assert_eq!(
            cost_expr(MetricId::S1Hpl).dim().unwrap(),
            Dim::FLOP_RATE.recip()
        );
        assert_eq!(
            cost_expr(MetricId::S2Stream).dim().unwrap(),
            Dim::BYTE_RATE.recip()
        );
        assert_eq!(
            cost_expr(MetricId::S3Gups).dim().unwrap(),
            Dim::UPDATE_RATE.recip()
        );
        for m in [
            MetricId::P4Hpl,
            MetricId::P5HplStream,
            MetricId::P6HplStreamGups,
            MetricId::P7HplMaps,
            MetricId::P8HplMapsNet,
            MetricId::P9HplMapsNetDep,
        ] {
            assert_eq!(cost_expr(m).dim().unwrap(), Dim::TIME, "{m}");
        }
    }

    #[test]
    fn dimension_errors_name_the_offending_node() {
        let bad = Expr::Sum(vec![
            Expr::Time(TimeSource::NetLatency),
            Expr::Count(CountSource::EventBytes),
        ]);
        let err = bad.dim().unwrap_err();
        assert!(err.0.contains("s vs B"), "{err}");
    }

    #[test]
    fn dim_display_is_readable() {
        assert_eq!(Dim::TIME.to_string(), "s");
        assert_eq!(Dim::NONE.to_string(), "1");
        assert_eq!(Dim::FLOP_RATE.to_string(), "flop/s");
        assert_eq!(Dim::FLOP_RATE.recip().to_string(), "s/flop");
    }

    #[test]
    fn probe_dataflow_per_metric() {
        use ProbeQuantity as Q;
        assert_eq!(
            cost_expr(MetricId::S1Hpl).probe_quantities(),
            vec![Q::HplRmax]
        );
        assert_eq!(
            cost_expr(MetricId::P6HplStreamGups).probe_quantities(),
            vec![Q::HplRmax, Q::StreamBandwidth, Q::GupsEffectiveBandwidth]
        );
        let nine = cost_expr(MetricId::P9HplMapsNetDep).probe_quantities();
        for q in [
            Q::HplRmax,
            Q::MapsCurves,
            Q::NetLatency,
            Q::NetBandwidth,
            Q::NetAllreduce64,
        ] {
            assert!(nine.contains(&q), "#9 must consume {q}");
        }
        assert!(cost_expr(MetricId::P9HplMapsNetDep).has_labeled_curves());
        assert!(!cost_expr(MetricId::P8HplMapsNet).has_labeled_curves());
    }

    #[test]
    fn prediction_formula_matches_predict_all_bitwise() {
        // The single-lane walk of the prediction tree against the two-lane
        // walk of the cost tree, on every paper trace.
        let f = fleet();
        let suite = ProbeSuite::new();
        let base = suite.measure(f.base());
        let target = suite.measure(f.get(MachineId::ArlOpteron));
        let t0 = Seconds::new(4242.0);
        for (case, cpus) in all_test_cases() {
            let trace = trace_workload(&case.workload(cpus));
            let labels = analyze_dependencies(&trace.blocks);
            let reference = predict_all(&trace, &labels, &target, &base, t0);
            for (i, m) in MetricId::ALL.into_iter().enumerate() {
                let from_ir =
                    eval_prediction(&prediction_expr(m), &target, &base, &trace, &labels, t0);
                assert_eq!(
                    from_ir.get().to_bits(),
                    reference[i].get().to_bits(),
                    "{}/{cpus} {m}: IR {from_ir} vs predict_all {}",
                    case.label(),
                    reference[i]
                );
            }
        }
    }

    fn setup(id: MachineId) -> (MachineProbes, ApplicationTrace, Vec<DependencyClass>) {
        let probes = (*ProbeSuite::new().measure(fleet().get(id))).clone();
        let trace = trace_workload(&TestCase::AvusStandard.workload(64));
        let labels = analyze_dependencies(&trace.blocks);
        (probes, trace, labels)
    }

    fn cost(
        m: MetricId,
        probes: &MachineProbes,
        trace: &ApplicationTrace,
        labels: &[DependencyClass],
    ) -> f64 {
        eval_cost(&cost_expr(m), probes, trace, labels)
    }

    #[test]
    fn metric4_ratio_equals_hpl_ratio() {
        // The flop count cancels in the ratio, reproducing Equation 1.
        let (pa, trace, labels) = setup(MachineId::ArlOpteron);
        let (pb, _, _) = setup(MachineId::AscSc45);
        let conv_ratio = cost(MetricId::P4Hpl, &pa, &trace, &labels)
            / cost(MetricId::P4Hpl, &pb, &trace, &labels);
        let hpl_ratio = cost(MetricId::S1Hpl, &pa, &trace, &labels)
            / cost(MetricId::S1Hpl, &pb, &trace, &labels);
        assert!(
            (conv_ratio - hpl_ratio).abs() / hpl_ratio < 1e-12,
            "{conv_ratio} vs {hpl_ratio}"
        );
    }

    #[test]
    fn costs_are_positive_and_finite_for_all_metrics() {
        let (probes, trace, labels) = setup(MachineId::MhpccP3);
        for m in MetricId::ALL {
            let c = cost(m, &probes, &trace, &labels);
            assert!(c > 0.0 && c.is_finite(), "{m}: {c}");
        }
    }

    #[test]
    fn memory_terms_dominate_flop_terms_for_these_apps() {
        // The TI-05 suite is memory-bound: #5's cost must exceed #4's.
        let (probes, trace, labels) = setup(MachineId::ArlXeon);
        let c4 = cost(MetricId::P4Hpl, &probes, &trace, &labels);
        let c5 = cost(MetricId::P5HplStream, &probes, &trace, &labels);
        assert!(c5 > 2.0 * c4, "#5 {c5} should dwarf #4 {c4}");
    }

    #[test]
    fn random_discrimination_raises_cost_above_stream_only() {
        // GUPS rates are far below STREAM: #6's cost must exceed #5's.
        let (probes, trace, labels) = setup(MachineId::Navo655);
        let c5 = cost(MetricId::P5HplStream, &probes, &trace, &labels);
        let c6 = cost(MetricId::P6HplStreamGups, &probes, &trace, &labels);
        assert!(c6 > c5, "#6 {c6} vs #5 {c5}");
    }

    #[test]
    fn maps_sees_cache_residency_that_stream_does_not() {
        // #7 rates cache-resident blocks faster than #6's main-memory
        // rates; with this workload's mix, #7's cost is below #6's.
        let (probes, trace, labels) = setup(MachineId::ArlAltix);
        let c6 = cost(MetricId::P6HplStreamGups, &probes, &trace, &labels);
        let c7 = cost(MetricId::P7HplMaps, &probes, &trace, &labels);
        assert!(c7 < c6, "#7 {c7} vs #6 {c6}");
    }

    #[test]
    fn network_term_adds_to_metric8() {
        let (probes, trace, labels) = setup(MachineId::MhpccP3);
        let c7 = cost(MetricId::P7HplMaps, &probes, &trace, &labels);
        let c8 = cost(MetricId::P8HplMapsNet, &probes, &trace, &labels);
        assert!(c8 > c7);
        let net = eval_cost(&network_cost_expr(), &probes, &trace, &labels);
        assert!((c8 - c7 - net).abs() / net < 1e-9);
    }

    #[test]
    fn dependency_term_slows_chained_blocks() {
        let (probes, trace, labels) = setup(MachineId::Navo655);
        let c8 = cost(MetricId::P8HplMapsNet, &probes, &trace, &labels);
        let c9 = cost(MetricId::P9HplMapsNetDep, &probes, &trace, &labels);
        assert!(
            c9 > c8,
            "enhanced curves must slow the dependency-flagged blocks: {c9} vs {c8}"
        );
    }

    #[test]
    #[should_panic(expected = "parallel to blocks")]
    fn mismatched_labels_panic() {
        let (probes, trace, _) = setup(MachineId::ArlXeon);
        let _ = cost(MetricId::P9HplMapsNetDep, &probes, &trace, &[]);
    }

    /// Reference traversal: every quantity occurrence in evaluation
    /// order, duplicates included.
    fn all_occurrences(expr: &Expr, out: &mut Vec<ProbeQuantity>) {
        match expr {
            Expr::Rate(r) => out.push(r.quantity()),
            Expr::Time(t) => out.extend(t.quantity()),
            Expr::Curve { .. } => out.push(ProbeQuantity::MapsCurves),
            Expr::Const(_) | Expr::Count(_) | Expr::Scale(_) => {}
            Expr::Recip(e) | Expr::OnBase(e) | Expr::CommSum(e) => all_occurrences(e, out),
            Expr::BlockSum { body, .. } => all_occurrences(body, out),
            Expr::Ratio(a, b) | Expr::Mul(a, b) | Expr::Max(a, b) => {
                all_occurrences(a, out);
                all_occurrences(b, out);
            }
            Expr::Sum(terms) => {
                for t in terms {
                    all_occurrences(t, out);
                }
            }
            Expr::OpSwitch(arms) => {
                for (_, e) in arms {
                    all_occurrences(e, out);
                }
            }
        }
    }

    fn dedup_first_use(occurrences: &[ProbeQuantity]) -> Vec<ProbeQuantity> {
        let mut out = Vec::new();
        for q in occurrences {
            if !out.contains(q) {
                out.push(*q);
            }
        }
        out
    }

    #[test]
    fn probe_quantities_is_deduplicated_and_first_use_ordered_for_every_metric() {
        for m in MetricId::ALL {
            for expr in [cost_expr(m), prediction_expr(m)] {
                let qs = expr.probe_quantities();
                let unique: std::collections::HashSet<ProbeQuantity> = qs.iter().copied().collect();
                assert_eq!(unique.len(), qs.len(), "{m}: duplicates in {qs:?}");
                let mut occurrences = Vec::new();
                all_occurrences(&expr, &mut occurrences);
                assert_eq!(
                    qs,
                    dedup_first_use(&occurrences),
                    "{m}: probe_quantities must be the occurrence list deduplicated \
                     in first-use order"
                );
                assert_eq!(qs, expr.probe_quantities(), "{m}: unstable across calls");
            }
        }
    }

    /// A deterministic expression tree built from integer draws, covering
    /// every structural node kind `probe_quantities` recurses through.
    fn expr_from(draws: &[u64], lo: usize, hi: usize) -> Expr {
        if hi - lo <= 1 {
            return match draws.get(lo).copied().unwrap_or(0) % 9 {
                0 => Expr::Rate(RateSource::HplRmax),
                1 => Expr::Rate(RateSource::StreamBandwidth),
                2 => Expr::Rate(RateSource::GupsUpdateRate),
                3 => Expr::Rate(RateSource::GupsEffectiveBandwidth),
                4 => Expr::Rate(RateSource::NetBandwidth),
                5 => Expr::Time(TimeSource::NetLatency),
                6 => Expr::Time(TimeSource::NetAllreduce64),
                7 => Expr::Curve {
                    random: draws[lo].is_multiple_of(2),
                },
                _ => Expr::Const(1.0),
            };
        }
        let mid = lo + 1 + (hi - lo - 1) / 2;
        let a = expr_from(draws, lo + 1, mid);
        let b = expr_from(draws, mid, hi);
        match draws[lo] % 7 {
            0 => Expr::Sum(vec![a, b]),
            1 => Expr::Mul(Box::new(a), Box::new(b)),
            2 => Expr::Ratio(Box::new(a), Box::new(b)),
            3 => Expr::Max(Box::new(a), Box::new(b)),
            4 => Expr::Recip(Box::new(Expr::Sum(vec![a, b]))),
            5 => Expr::OnBase(Box::new(Expr::Sum(vec![a, b]))),
            _ => Expr::BlockSum {
                labeled: draws[lo].is_multiple_of(2),
                body: Box::new(Expr::Sum(vec![a, b])),
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        // The dedup/ordering contract holds for arbitrary trees, not just
        // the nine shipped formulas: no duplicates, first-use order, and
        // byte-stable across repeated calls.
        #[test]
        fn probe_quantities_contract_holds_for_arbitrary_trees(
            draws in prop::collection::vec(0u64..1_000_000, 1..48),
        ) {
            let expr = expr_from(&draws, 0, draws.len());
            let qs = expr.probe_quantities();
            let unique: std::collections::HashSet<ProbeQuantity> = qs.iter().copied().collect();
            prop_assert_eq!(unique.len(), qs.len(), "duplicates in {:?}", qs);
            let mut occurrences = Vec::new();
            all_occurrences(&expr, &mut occurrences);
            prop_assert_eq!(qs.clone(), dedup_first_use(&occurrences));
            prop_assert_eq!(qs, expr.probe_quantities());
        }
    }
}
