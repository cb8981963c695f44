//===- htm/Htm.h - Hardware transactional memory runtime --------*- C++-*-===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// HTM abstraction used by the HST-HTM and PICO-HTM schemes.
///
/// Two backends:
///  - HardwareHtm: Intel RTM (xbegin/xend), selected when the CPU supports
///    it at runtime.
///  - SoftHtm: a single-global-lock HTM emulation with a calibrated abort
///    model. Transactions acquire a global spin lock with bounded spinning
///    (failure => conflict abort, so abort rate grows with contention,
///    mirroring TSX under load); plain stores that call notifyStore doom
///    transactions watching the stored granule; and a footprint model
///    aborts transactions that cover too much emulator work — reproducing
///    the paper's observation that PICO-HTM, whose transactions span the
///    translator/interpreter code between LL and SC, suffers abort storms
///    and livelocks beyond ~8 threads (Section IV-B).
///
///    The model does not isolate a transaction from non-transactional
///    writes. Writes that skip the global lock (plain stores, HST table
///    tags) land inside the transaction's window unseen, unless the
///    writer calls notifyStore, and that only dooms a transaction whose
///    watch granule matches. A doomed commit rolls nothing back: stores
///    made inside the transaction stay in memory. Schemes that need RTM's
///    read/write-set isolation must validate their own writes (HST-HTM
///    publishes its SC with a CAS from the LL's value).
///
/// The substitution is documented in DESIGN.md §5.
///
//===----------------------------------------------------------------------===//

#ifndef LLSC_HTM_HTM_H
#define LLSC_HTM_HTM_H

#include <atomic>
#include <cstdint>
#include <memory>

namespace llsc {

/// Result of beginning (or running) a transaction.
enum class TxStatus : uint8_t {
  Started,       ///< Transaction is running.
  AbortConflict, ///< Another thread conflicted.
  AbortCapacity, ///< Footprint exceeded capacity.
  AbortOther,
};

/// Aggregate HTM statistics.
struct HtmStats {
  uint64_t Begins = 0;
  uint64_t Commits = 0;
  uint64_t ConflictAborts = 0;
  uint64_t CapacityAborts = 0;
  uint64_t StoreDooms = 0; ///< Transactions doomed by plain stores (soft).
};

/// CounterRegistry pointers for backend-level HTM events, resolved once
/// (the cache-the-pointer contract of support/Stats.h). These mirror the
/// backends' own atomics under "htm.raw.*" names — the backend-level
/// truth, as opposed to the per-vCPU, scheme-attributed "htm.*" counters
/// in runtime/EventCounters.h (see docs/OBSERVABILITY.md).
struct HtmRegistryCounters {
  std::atomic<uint64_t> *Begins;
  std::atomic<uint64_t> *Commits;
  std::atomic<uint64_t> *ConflictAborts;
  std::atomic<uint64_t> *CapacityAborts;
  std::atomic<uint64_t> *StoreDooms;

  static const HtmRegistryCounters &get();
};

/// Abstract HTM backend. Thread ids index per-thread transaction slots and
/// must be < the MaxThreads the backend was created with.
class HtmRuntime {
public:
  virtual ~HtmRuntime() = default;

  virtual const char *name() const = 0;

  /// Begins a transaction on thread \p Tid that will validate/update guest
  /// address \p WatchAddr. \returns Started or an abort cause.
  virtual TxStatus begin(unsigned Tid, uint64_t WatchAddr) = 0;

  /// Attempts to commit. \returns false if the transaction was doomed; the
  /// caller must retry. RTM has rolled the transaction back by then;
  /// SoftHtm has not (see the file header).
  virtual bool commit(unsigned Tid) = 0;

  /// Explicitly aborts the running transaction of \p Tid.
  virtual void abort(unsigned Tid) = 0;

  /// \returns true if \p Tid currently has a transaction running.
  virtual bool inTransaction(unsigned Tid) const = 0;

  /// Accounts \p Units of emulator work to \p Tid's transaction footprint.
  /// The engine calls this per executed block while a vCPU is inside a
  /// PICO-HTM-style long transaction. May doom the transaction.
  virtual void noteFootprint(unsigned Tid, uint64_t Units) {}

  /// Plain-store conflict hook (software backend): dooms transactions
  /// watching \p Addr. Cheap no-op when no transaction is active.
  virtual void notifyStore(uint64_t Addr) {}

  /// \returns true if plain store paths must call notifyStore().
  virtual bool needsStoreNotification() const { return false; }

  virtual HtmStats stats() const = 0;
  virtual void resetStats() = 0;
};

/// Tuning knobs for the software backend.
struct SoftHtmConfig {
  unsigned MaxThreads = 64;
  /// Spin iterations before a begin() gives up with a conflict abort.
  unsigned BeginSpinLimit = 4096;
  /// Footprint units (emulator work) a transaction tolerates before a
  /// capacity abort. PICO-HTM's LL..SC transactions accumulate the
  /// interpreter work of every block they span; HST-HTM's SC-only
  /// transactions accumulate none.
  uint64_t CapacityLimit = 512;
  /// Watch granule in bytes for store-interference dooming.
  unsigned WatchGranule = 8;
};

/// Creates the software (single-global-lock) backend.
std::unique_ptr<HtmRuntime> createSoftHtm(const SoftHtmConfig &Config);

/// Creates the Intel RTM backend, or nullptr if the CPU lacks usable RTM.
std::unique_ptr<HtmRuntime> createHardwareHtm(unsigned MaxThreads);

/// \returns true if RTM transactions actually work on this machine (probed
/// by executing one, since virtualized environments often advertise the
/// CPUID bit while aborting every transaction).
bool hardwareHtmUsable();

/// Creates the hardware backend when usable, else the software backend.
std::unique_ptr<HtmRuntime> createBestHtm(const SoftHtmConfig &SoftConfig);

} // namespace llsc

#endif // LLSC_HTM_HTM_H
