/**
 * @file
 * The contiguity observatory: a tick-driven StateSampler that the
 * Kernel/FaultEngine and VMs register with. Every `periodFaults`
 * faults (or on explicit sampleNow()) it captures one Snapshot
 * (obs/snapshot.hh) of allocator fragmentation, contiguity-map
 * cluster CDFs, per-VMA offset runs, coverage and translation
 * counters, optionally streaming delta-encoded JSONL records into
 * the process-wide TimelineSink (`--timeline FILE` via
 * core/bench_io).
 *
 * Cost model: a detached sampler costs the fault path exactly one
 * branch on a null pointer; an attached sampler with a large period
 * adds one counter increment + compare per fault (both verified by
 * bench/micro_obs_overhead.cc). Capture cost is only paid at the
 * sampling cadence.
 *
 * RunInfo is the reproducibility side channel: systems note their
 * RNG seeds and kernels their full KernelConfig knob set, and every
 * bench JSON `config` block embeds the collected values.
 */

#ifndef CONTIG_OBS_OBSERVATORY_HH
#define CONTIG_OBS_OBSERVATORY_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "obs/snapshot.hh"

namespace contig
{

class Kernel;
class Process;
class TranslationSim;
class VirtualMachine;
class JsonWriter;

namespace obs
{

/** Tunables for one StateSampler. */
struct SamplerConfig
{
    /**
     * Capture every this-many faults once attached to a kernel.
     * 0 = never from the fault path; only explicit sampleNow().
     */
    std::uint64_t periodFaults = 0;
    /**
     * Also capture the full Fig. 9 free-block histogram per zone
     * (walks every buddy free list — noticeably pricier than the
     * O(orders + clusters) base capture).
     */
    bool captureFreeHist = false;
    /** Retain every Snapshot in memory (drivers read them back). */
    bool keepSnapshots = true;
    /** Stream label in timeline records ("CA:svm", "xlat:spot"...). */
    std::string domain = "kernel";
};

class StateSampler
{
  public:
    /** A segment extractor: the current 1-D or 2-D mapping list. */
    using SegProbe = std::function<std::vector<Seg>()>;

    explicit StateSampler(SamplerConfig cfg = {});
    ~StateSampler();

    StateSampler(const StateSampler &) = delete;
    StateSampler &operator=(const StateSampler &) = delete;

    // --- registration ---------------------------------------------------

    /**
     * Register with a kernel: its FaultEngine ticks this sampler
     * after every fault, and captures read the kernel's zones and
     * fault counters. At most one sampler per kernel.
     */
    void attachKernel(Kernel &kernel);

    /**
     * Stop fault-driven sampling. The kernel stays readable —
     * explicit sampleNow() keeps capturing its state. Called
     * automatically on destruction.
     */
    void detachKernel();

    /**
     * Register a segment probe. `proc` (optional) attributes runs to
     * its VMAs; `track_coverage` makes this probe fill the
     * snapshot's coverage metrics (at most one probe should).
     */
    void addSegProbe(std::string dim, const Process *proc, SegProbe fn,
                     bool track_coverage);

    /**
     * VM registration: adds the guest 1-D probe (gVA -> gPA) and the
     * nested 2-D probe (gVA -> hPA via the VMI intersection), the
     * 2-D one carrying the coverage metrics.
     */
    void attachVm(const Process &guest_proc, const VirtualMachine &vm);

    /** Include TLB/walker/SpOT counters in every capture. */
    void attachTranslation(const TranslationSim &sim);

    // --- sampling -------------------------------------------------------

    /**
     * The fault-path hook (called by FaultEngine::finishFault).
     * Costs one increment + compare until the period elapses.
     */
    void
    onFaultTick()
    {
        if (cfg_.periodFaults == 0)
            return;
        if (++sinceSample_ >= cfg_.periodFaults) {
            sinceSample_ = 0;
            sampleNow();
        }
    }

    /** Capture now; tick taken from the kernel clock (or seq). */
    const Snapshot &sampleNow();

    /** Capture now at an explicit tick (kernel-less samplers). */
    const Snapshot &sampleAt(std::uint64_t tick);

    // --- results --------------------------------------------------------

    const std::vector<Snapshot> &snapshots() const { return snapshots_; }
    const SamplerConfig &config() const { return cfg_; }

  private:
    struct Probe
    {
        std::string dim;
        const Process *proc = nullptr;
        SegProbe fn;
        bool trackCoverage = false;
    };

    void capture(Snapshot &snap, std::uint64_t tick);
    void emitTimeline(const Snapshot &snap);

    SamplerConfig cfg_;
    std::uint64_t sinceSample_ = 0;
    std::uint64_t seqNext_ = 0;
    Kernel *kernel_ = nullptr;
    bool engineAttached_ = false;
    const TranslationSim *xlat_ = nullptr;
    std::vector<Probe> probes_;
    std::vector<Snapshot> snapshots_;
    Snapshot last_;
    /** Timeline delta state. */
    bool streamOpen_ = false;
    std::uint64_t streamId_ = 0;
    bool emittedFull_ = false;
    FlatSnap prevFlat_;
};

/**
 * The process-wide JSONL timeline file. BenchOutput opens it from
 * `--timeline FILE`; every StateSampler whose
 * lifetime overlaps streams its records into it under a fresh
 * stream id.
 */
class TimelineSink
{
  public:
    static TimelineSink &global();

    TimelineSink() = default;
    ~TimelineSink();
    TimelineSink(const TimelineSink &) = delete;
    TimelineSink &operator=(const TimelineSink &) = delete;

    /** Open (truncate) the output; enables streaming. */
    bool open(const std::string &path);
    /**
     * Flush and close; further emits are dropped. False when a write
     * or the close failed (the caller reports it: close() also runs
     * from the destructor at exit).
     */
    bool close();

    bool enabled() const { return file_ != nullptr; }
    const std::string &path() const { return path_; }
    std::uint64_t records() const { return records_; }
    std::uint64_t streams() const { return nextStream_; }

    /** Allocate a stream id for one sampler. */
    std::uint64_t newStream() { return nextStream_++; }

    /** Append one record as a JSON line; fatal() if the write fails. */
    void emit(const TimelineRecord &rec);

  private:
    std::FILE *file_ = nullptr;
    std::string path_;
    std::uint64_t records_ = 0;
    std::uint64_t nextStream_ = 0;
};

/**
 * Reproducibility record: seeds and config knobs noted during a run,
 * deduplicated per key. BenchOutput::write() embeds the collected
 * values under config.run in every bench JSON document.
 */
class RunInfo
{
  public:
    static RunInfo &global();

    RunInfo() = default;
    RunInfo(const RunInfo &) = delete;
    RunInfo &operator=(const RunInfo &) = delete;

    void note(std::string_view key, std::string_view value);
    void note(std::string_view key, std::uint64_t value);
    void note(std::string_view key, double value);
    void note(std::string_view key, bool value);
    /** Add to an occurrence counter ("kernel.instances"). */
    void count(std::string_view key, std::uint64_t n = 1);

    bool empty() const { return values_.empty() && counts_.empty(); }
    void clear();

    using Values = std::map<std::string, std::set<std::string>, std::less<>>;
    using Counts = std::map<std::string, std::uint64_t, std::less<>>;

    /** The noted values per key, and the occurrence counters. */
    const Values &values() const { return values_; }
    const Counts &counts() const { return counts_; }

    /**
     * Fold another record in: each key's values join this one's and
     * counters add, so absorbing records in any order gives the same
     * result (a forked cell's record, core/cells).
     */
    void absorb(const RunInfo &other);

    /**
     * Emit as one JSON object: counters as numbers, single-valued
     * keys as their value string, multi-valued keys (the same knob
     * noted with different values across instances) as an array.
     */
    void writeJson(JsonWriter &w) const;

  private:
    Values values_;
    Counts counts_;
};

} // namespace obs
} // namespace contig

#endif // CONTIG_OBS_OBSERVATORY_HH
