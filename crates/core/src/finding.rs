//! One finding type for every correctness layer.
//!
//! Each check in the simulator guards an invariant from the paper — the
//! Figure 3 "shadow above, nested below" partition, the §III-B rule that a
//! shadow leaf merges guest and host, the Table II reference counts — and
//! every broken invariant is reported the same way: as a [`Finding`] whose
//! [`FindingCode`] names the invariant. The runtime oracles
//! ([`crate::verify`]), the transition differ ([`crate::snapshot::diff`]),
//! the static analyzer ([`crate::analyze`]), the bisector and the bounded
//! explorer ([`mod@crate::explore`]) all produce and render this one type.
//!
//! The catalogue has one order: the seven runtime-oracle codes first (their
//! [`Persist`] tags 0–6 are what snapshots store), then the static-analysis
//! codes in report order. [`crate::LintReport`] sorts by it.

use crate::runner::Json;
use agile_types::{CodecError, Dec, Enc, HostFrame, Level, Persist, ProcessId, VmId};

/// Which invariant a [`Finding`] reports broken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FindingCode {
    /// A TLB hit disagreed with the reference translator.
    TlbHit,
    /// A completed walk disagreed with the reference translator or the
    /// Table II reference-count model.
    Walk,
    /// A stale entry survived in the TLB hierarchy.
    StaleTlb,
    /// A stale entry survived in the page-walk caches.
    StalePwc,
    /// A stale entry survived in the nested TLB.
    StaleNtlb,
    /// A [`crate::RunStats`] conservation identity failed.
    Stats,
    /// A technique-switch or migration transition changed the translation
    /// function, or moved state outside the intended subtree (found by the
    /// two-state differ, [`crate::snapshot::diff`]).
    Transition,
    /// A live host page-table page is reachable from no owner (host tree,
    /// shadow tree, or guest-table backing): leaked table memory.
    OrphanFrame,
    /// A live host page-table page is claimed by two or more owners.
    MultiOwnedFrame,
    /// An interior (non-leaf, non-switching) entry points at a frame that
    /// is not a live table page.
    DanglingTablePointer,
    /// A registered guest page-table frame has no live host table backing.
    UnbackedGuestTable,
    /// A shadow (or merged) leaf translates to a frame other than what the
    /// guest∘host composition says, or maps a gVA the guest does not map.
    ShadowFrameMismatch,
    /// A shadow leaf grants write permission beyond guest ∩ host.
    ShadowPermExceeds,
    /// A shadow leaf's dirty/writable state is inconsistent with the guest
    /// leaf's dirty bit (the §III-B dirty-tracking protocol was bypassed).
    AdBitInconsistent,
    /// A switching entry exists where the technique or process mode forbids
    /// one (non-agile technique, or fully nested address space).
    SwitchingBitForbidden,
    /// A switching entry does not point at the host backing of a
    /// nested-mode guest table page at the level below it.
    SwitchingTargetInvalid,
    /// A switching entry points into shadow-owned table memory: shadow
    /// entries survive strictly below a set switching bit.
    ShadowBelowSwitching,
    /// A nested-mode guest page-table page has a non-nested child: the walk
    /// path would return from the nested suffix to a shadow prefix.
    ModePartition,
    /// A leaf or TLB entry aliases one physical range under two page sizes
    /// that disagree (span exceeds the effective guest ∩ host size, or two
    /// overlapping TLB entries translate the overlap differently).
    HugeAliasConflict,
    /// A table frame was freed under a dropped/deferred shootdown and the
    /// allocator handed out new frames before any covering flush applied.
    MissedShootdownReuse,
    /// A table frame was freed and its covering shootdown still had not
    /// applied when the machine paused (no reuse observed yet).
    ShootdownNeverApplied,
    /// Host scope: two VMs' frame extents overlap, or a VM holds more
    /// frames than its lease on the shared pool grants — either way, a
    /// frame is effectively owned by two VMs.
    CrossVmFrameAlias,
    /// Host scope: a VM still holds leased frames after teardown.
    TeardownFrameLeak,
    /// Host scope: frames a guest balloon surrendered never reached the
    /// shared pool (the arbiter lost them in transit).
    BalloonNotReturned,
}

impl FindingCode {
    /// Every code, in catalogue order (the [`Persist`] tag order and the
    /// report sort order).
    pub const ALL: [FindingCode; 24] = [
        FindingCode::TlbHit,
        FindingCode::Walk,
        FindingCode::StaleTlb,
        FindingCode::StalePwc,
        FindingCode::StaleNtlb,
        FindingCode::Stats,
        FindingCode::Transition,
        FindingCode::OrphanFrame,
        FindingCode::MultiOwnedFrame,
        FindingCode::DanglingTablePointer,
        FindingCode::UnbackedGuestTable,
        FindingCode::ShadowFrameMismatch,
        FindingCode::ShadowPermExceeds,
        FindingCode::AdBitInconsistent,
        FindingCode::SwitchingBitForbidden,
        FindingCode::SwitchingTargetInvalid,
        FindingCode::ShadowBelowSwitching,
        FindingCode::ModePartition,
        FindingCode::HugeAliasConflict,
        FindingCode::MissedShootdownReuse,
        FindingCode::ShootdownNeverApplied,
        FindingCode::CrossVmFrameAlias,
        FindingCode::TeardownFrameLeak,
        FindingCode::BalloonNotReturned,
    ];

    /// Stable kebab-case label (used in rendered and JSON output).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FindingCode::TlbHit => "tlb-hit",
            FindingCode::Walk => "walk",
            FindingCode::StaleTlb => "stale-tlb",
            FindingCode::StalePwc => "stale-pwc",
            FindingCode::StaleNtlb => "stale-ntlb",
            FindingCode::Stats => "stats",
            FindingCode::Transition => "transition",
            FindingCode::OrphanFrame => "orphan-frame",
            FindingCode::MultiOwnedFrame => "multi-owned-frame",
            FindingCode::DanglingTablePointer => "dangling-table-pointer",
            FindingCode::UnbackedGuestTable => "unbacked-guest-table",
            FindingCode::ShadowFrameMismatch => "shadow-frame-mismatch",
            FindingCode::ShadowPermExceeds => "shadow-perm-exceeds",
            FindingCode::AdBitInconsistent => "ad-bit-inconsistent",
            FindingCode::SwitchingBitForbidden => "switching-bit-forbidden",
            FindingCode::SwitchingTargetInvalid => "switching-target-invalid",
            FindingCode::ShadowBelowSwitching => "shadow-below-switching",
            FindingCode::ModePartition => "mode-partition",
            FindingCode::HugeAliasConflict => "huge-alias-conflict",
            FindingCode::MissedShootdownReuse => "missed-shootdown-reuse",
            FindingCode::ShootdownNeverApplied => "shootdown-never-applied",
            FindingCode::CrossVmFrameAlias => "cross-vm-frame-alias",
            FindingCode::TeardownFrameLeak => "teardown-frame-leak",
            FindingCode::BalloonNotReturned => "balloon-not-returned",
        }
    }

    /// How serious a finding with this code is.
    #[must_use]
    pub fn severity(self) -> Severity {
        match self {
            // No reuse observed yet: the window is open but nothing stale
            // can have been handed out, so this is advisory.
            FindingCode::ShootdownNeverApplied => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl Persist for FindingCode {
    fn save(&self, e: &mut Enc) {
        // Declaration order is `ALL` order, so the discriminant is the tag.
        e.u8(*self as u8);
    }
    fn load(d: &mut Dec) -> Result<Self, CodecError> {
        let tag = d.u8()?;
        FindingCode::ALL
            .get(usize::from(tag))
            .copied()
            .map_or_else(|| d.fail(format!("bad FindingCode tag {tag}")), Ok)
    }
}

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: suspicious but not yet a correctness violation.
    Warning,
    /// An invariant is broken.
    Error,
}

impl Severity {
    fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One broken invariant: the code naming it and the VM/process/gVA/level/
/// frame context it concerns, each present when the check knows it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which invariant is broken.
    pub code: FindingCode,
    /// VM the finding concerns, when the analysis is host-scoped
    /// (multi-VM). `None` for single-machine checks.
    pub vm: Option<VmId>,
    /// Process whose translation or tables the finding concerns.
    pub pid: Option<ProcessId>,
    /// Offending guest virtual address, when the check concerns one.
    pub gva: Option<u64>,
    /// Page-table level involved, when known.
    pub level: Option<Level>,
    /// Host frame involved, when known.
    pub frame: Option<HostFrame>,
    /// What exactly is wrong.
    pub detail: String,
}

impl Finding {
    /// A finding with no context yet; the builder methods add it.
    #[must_use]
    pub(crate) fn new(code: FindingCode, detail: String) -> Self {
        Finding {
            code,
            vm: None,
            pid: None,
            gva: None,
            level: None,
            frame: None,
            detail,
        }
    }

    /// Tags the finding with the VM it concerns (host-scope analyses).
    #[must_use]
    pub fn vm(mut self, vm: VmId) -> Self {
        self.vm = Some(vm);
        self
    }

    /// Tags the finding with the process it concerns.
    #[must_use]
    pub(crate) fn pid(mut self, pid: ProcessId) -> Self {
        self.pid = Some(pid);
        self
    }

    /// Tags the finding with the offending guest virtual address.
    #[must_use]
    pub(crate) fn gva(mut self, gva: u64) -> Self {
        self.gva = Some(gva);
        self
    }

    /// Tags the finding with the page-table level involved.
    #[must_use]
    pub(crate) fn level(mut self, level: Level) -> Self {
        self.level = Some(level);
        self
    }

    /// Tags the finding with the host frame involved.
    #[must_use]
    pub(crate) fn frame(mut self, frame: HostFrame) -> Self {
        self.frame = Some(frame);
        self
    }

    /// The code's severity.
    #[must_use]
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }

    /// Renders the finding as a stable sorted-key JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("code", Json::Str(self.code.label().to_string())),
            ("detail", Json::Str(self.detail.clone())),
            (
                "frame",
                self.frame.map_or(Json::Null, |f| Json::UInt(f.raw())),
            ),
            (
                "gva",
                self.gva
                    .map_or(Json::Null, |g| Json::Str(format!("{g:#x}"))),
            ),
            (
                "level",
                self.level
                    .map_or(Json::Null, |l| Json::UInt(u64::from(l.number()))),
            ),
            (
                "pid",
                self.pid
                    .map_or(Json::Null, |p| Json::UInt(u64::from(p.raw()))),
            ),
            ("severity", Json::Str(self.severity().label().to_string())),
            (
                "vm",
                self.vm
                    .map_or(Json::Null, |v| Json::UInt(u64::from(v.raw()))),
            ),
        ])
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}]", self.severity().label(), self.code.label())?;
        if let Some(vm) = self.vm {
            write!(f, " vm={}", vm.raw())?;
        }
        if let Some(pid) = self.pid {
            write!(f, " pid={}", pid.raw())?;
        }
        if let Some(gva) = self.gva {
            write!(f, " gva={gva:#x}")?;
        }
        if let Some(level) = self.level {
            write!(f, " level={level:?}")?;
        }
        if let Some(frame) = self.frame {
            write!(f, " frame={frame}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Stored form (snapshots carry a machine's recorded findings): the code
/// tag, `gva`, `level` and `detail`, then `vm`, `pid` and `frame`.
impl Persist for Finding {
    fn save(&self, e: &mut Enc) {
        self.code.save(e);
        self.gva.save(e);
        self.level.save(e);
        e.str(&self.detail);
        self.vm.save(e);
        self.pid.save(e);
        self.frame.save(e);
    }
    fn load(d: &mut Dec) -> Result<Self, CodecError> {
        Ok(Finding {
            code: FindingCode::load(d)?,
            gva: Option::<u64>::load(d)?,
            level: Option::<Level>::load(d)?,
            detail: d.str()?,
            vm: Option::<VmId>::load(d)?,
            pid: Option::<ProcessId>::load(d)?,
            frame: Option::<HostFrame>::load(d)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn catalogue_labels_are_unique_and_oracle_tags_lead() {
        let labels: HashSet<&str> = FindingCode::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), FindingCode::ALL.len());
        assert_eq!(FindingCode::ALL[0], FindingCode::TlbHit);
        assert_eq!(FindingCode::ALL[6], FindingCode::Transition);
        assert_eq!(FindingCode::ALL[7], FindingCode::OrphanFrame);
        assert!(FindingCode::ALL.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(
            FindingCode::ShootdownNeverApplied.severity(),
            Severity::Warning
        );
        assert_eq!(FindingCode::OrphanFrame.severity(), Severity::Error);
    }

    #[test]
    fn display_and_json_carry_every_field() {
        let f = Finding::new(FindingCode::StalePwc, "stale".into())
            .vm(VmId::new(2))
            .pid(ProcessId::new(3))
            .gva(0x4000)
            .level(Level::L2)
            .frame(HostFrame::new(9));
        assert_eq!(
            f.to_string(),
            "error[stale-pwc] vm=2 pid=3 gva=0x4000 level=L2 frame=0x9: stale"
        );
        assert_eq!(
            f.to_json().render(),
            "{\"code\":\"stale-pwc\",\"detail\":\"stale\",\"frame\":9,\"gva\":\"0x4000\",\
             \"level\":2,\"pid\":3,\"severity\":\"error\",\"vm\":2}"
        );
    }
}
