//===- atomic/HstHtm.cpp - HST with HTM-backed SC (HST-HTM) -------------------===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// HST-HTM (Section III-B, Figure 6): identical to HST except the SC
/// critical section — hash-table check plus store — runs as an HTM
/// transaction instead of a QEMU start/end_exclusive stop-the-world
/// section. Crucially, and unlike PICO-HTM, the transaction covers *only*
/// the SC emulation, never the translated code between LL and SC, so its
/// footprint stays tiny and it keeps scaling where PICO-HTM livelocks
/// (Fig. 11).
///
/// The store inside the transaction is a value-validated CAS against the
/// LL's value, not a plain store. Under RTM the table entry and the value
/// line sit in the transaction's read and write sets, so a peer's LL that
/// re-tags the granule between the check and the store aborts us. The
/// SoftHtm model (RTM-less hosts) only takes a global lock and does not see
/// non-transactional writes, so such a peer LL can tag and load the old
/// value after our check; with a plain store both SCs would then succeed
/// and one update would be lost. With the CAS, the peer either loaded the
/// value before our store (its own CAS then fails) or after it (it sees
/// our value), and a plain store of a different value in the window fails
/// our CAS. On RTM the outcome is unchanged.
///
/// GuestMemory::compareExchange needs natural alignment, but GRV allows
/// 8-byte LL/SC at 4-aligned addresses. Such SCs go straight to the
/// exclusive section, where the stopped world makes check + store atomic.
/// After repeated conflict aborts an aligned SC falls back to the same
/// section, guaranteeing forward progress.
///
//===----------------------------------------------------------------------===//

#include "atomic/AtomicScheme.h"
#include "atomic/Schemes.h"

#include "htm/Htm.h"
#include "mem/GuestMemory.h"
#include "runtime/Exclusive.h"
#include "runtime/Observe.h"
#include "support/BitUtils.h"
#include "support/Compiler.h"
#include "support/LazyZeroArray.h"
#include "support/Timing.h"

#include <atomic>
#include <cassert>
#include <memory>

using namespace llsc;
using namespace llsc::ir;

namespace {

class HstHtm final : public AtomicScheme {
public:
  HstHtm(unsigned TableLog2, unsigned HtmMaxRetries)
      : NumEntries(1ULL << TableLog2), Mask(NumEntries - 1),
        MaxRetries(HtmMaxRetries),
        Table(NumEntries) {}

  const SchemeTraits &traits() const override {
    return schemeTraits(SchemeKind::HstHtm);
  }

  void onAttach() override {
    Ctx->HstTable = Table.data();
    Ctx->HstMask = Mask;
  }

  void onReset() override { zeroTable(); }

  void onDetach() override {
    if (Ctx->HstTable == Table.data()) {
      Ctx->HstTable = nullptr;
      Ctx->HstMask = 0;
    }
    zeroTable();
  }

  // Lazy zeroing via page drop, same rationale as Hst::zeroTable.
  void zeroTable() { Table.zero(); }

  uint64_t entryIndex(uint64_t Addr) const { return (Addr >> 2) & Mask; }
  static uint32_t tagFor(unsigned Tid) { return Tid + 1; }

  /// Multi-granule tag/check, same rationale as Hst::tagGranules: the
  /// table is 4-byte-granule indexed, so a wide or straddling access owns
  /// every covered entry, not just the first.
  void tagGranules(uint64_t Addr, unsigned Size, uint32_t Tag) {
    uint64_t First = Addr >> 2;
    uint64_t Last = (Addr + Size - 1) >> 2;
    Table[First & Mask].store(Tag, std::memory_order_relaxed);
    while (LLSC_UNLIKELY(First != Last)) {
      ++First;
      Table[First & Mask].store(Tag, std::memory_order_relaxed);
    }
  }

  bool granulesCarry(uint64_t Addr, unsigned Size, uint32_t Tag) const {
    uint64_t First = Addr >> 2;
    uint64_t Last = (Addr + Size - 1) >> 2;
    for (; First <= Last; ++First)
      if (Table[First & Mask].load(std::memory_order_relaxed) != Tag)
        return false;
    return true;
  }

  uint64_t emulateLoadLink(VCpu &Cpu, uint64_t Addr, unsigned Size) override {
    tagGranules(Addr, Size, tagFor(Cpu.Tid));
    uint64_t Value = Ctx->Mem->shadowLoad(Addr, Size);
    Cpu.Monitor.arm(Addr, Value, Size);
    return Value;
  }

  bool emulateStoreCond(VCpu &Cpu, uint64_t Addr, uint64_t Value,
                        unsigned Size) override {
    ExclusiveMonitor &Mon = Cpu.Monitor;
    if (!Mon.valid() || Mon.Addr != Addr || Mon.Size != Size) {
      Mon.clear();
      Cpu.Events.ScFailMonitorLost++;
      return false;
    }
    assert(Ctx->Htm && "HST-HTM requires an HTM runtime");

    bool Ok = false;
    bool Done = false;
    // A CAS needs natural alignment; other SCs take the exclusive path
    // without an HTM attempt, so they are not HTM fallbacks.
    bool CasPublishable = isAligned(Addr, Size);
    for (unsigned Attempt = 0; CasPublishable && Attempt < MaxRetries && !Done;
         ++Attempt) {
      Cpu.Events.HtmBegins++;
      TxStatus Status = Ctx->Htm->begin(Cpu.Tid, Addr);
      if (Status != TxStatus::Started) {
        if (Status == TxStatus::AbortCapacity)
          Cpu.Events.HtmAbortsCapacity++;
        else
          Cpu.Events.HtmAbortsConflict++;
        if (TraceRecorder *Trace = TraceRecorder::active())
          Trace->instant(Cpu.Tid, "htm-abort", "htm");
        continue; // Conflict: retry the tiny transaction.
      }
      // Figure 6: HTM_xbegin; Htable_check; store; HTM_xend. The check
      // covers every granule the SC touches; the store is a CAS from the
      // LL's value, since SoftHtm does not isolate the check from a peer's
      // LL (see the file header).
      bool CheckOk = granulesCarry(Addr, Size, tagFor(Cpu.Tid));
      if (CheckOk) {
        uint64_t Expected = Mon.Value;
        CheckOk = Ctx->Mem->compareExchange(Addr, Expected, Value, Size);
      }
      if (Ctx->Htm->commit(Cpu.Tid)) {
        Cpu.Events.HtmCommits++;
        Ok = CheckOk;
        Done = true;
      }
      // A doomed commit means the backend rolled the transaction back;
      // the SC must fail and the guest retries. (SoftHtm, which rolls
      // nothing back, never dooms these: HST-HTM accrues no footprint
      // and its plain stores do not call notifyStore.)
      else {
        Cpu.Events.HtmAbortsConflict++;
        Ok = false;
        Done = true;
      }
    }

    if (!Done) {
      if (CasPublishable) {
        // Forward-progress fallback: the HST exclusive-section path.
        Cpu.Counters.HtmLivelockFallbacks++;
        Cpu.Events.HtmFallbacks++;
      }
      BucketTimer Timer(Cpu.profileOrNull(), ProfileBucket::Exclusive);
      ExclusiveSection Excl(Cpu, Cpu.InRunLoop);
      Ok = granulesCarry(Addr, Size, tagFor(Cpu.Tid));
      if (Ok)
        Ctx->Mem->shadowStore(Addr, Value, Size);
    }

    if (!Ok) {
      // Same classification as HST: an unchanged value means the failure
      // was a hash-slot conflict or a doomed commit, not a lost monitor
      // (ABA cases are indistinguishable — see docs/OBSERVABILITY.md).
      if (Ctx->Mem->shadowLoad(Addr, Size) != Mon.Value)
        Cpu.Events.ScFailMonitorLost++;
      else
        Cpu.Events.ScFailHashConflict++;
    }

    Mon.clear();
    return Ok;
  }

  void emitStorePrologue(IRBuilder &B, ValueId Addr, int64_t Offset,
                         ValueId Value, unsigned Size) override {
    // Same inline instrumentation as HST (Figure 6 keeps the table);
    // fused into one micro-op like HST's (see Hst.cpp).
    B.setInstrumentMode(true);
    ValueId EffAddr =
        Offset ? B.emitBinImm(IROp::AddImm, Addr, Offset) : Addr;
    B.emitHstStoreTag(EffAddr, 0, Size);
    B.setInstrumentMode(false);
  }

private:
  uint64_t NumEntries;
  uint64_t Mask;
  unsigned MaxRetries;
  LazyZeroArray<std::atomic<uint32_t>> Table;
};

} // namespace

std::unique_ptr<AtomicScheme> llsc::createHstHtm(unsigned HstTableLog2,
                                                 unsigned HtmMaxRetries) {
  return std::make_unique<HstHtm>(HstTableLog2, HtmMaxRetries);
}
