/**
 * @file
 * Decoupled trace-replay frontend (the Scarab fetch-buffer shape): a
 * producer thread decodes .ctrace chunks *ahead* of the replay
 * engine, handing them to the consumer through a bounded SPSC ring of
 * decoded chunk buffers. While the replay engine chews on chunk k,
 * the producer is already decompressing k+1..k+depth — on a
 * replay-bound run the decode cost disappears from the critical path
 * entirely.
 *
 * Handoff protocol (chunk granularity, mutex + condvars — the ring
 * turns over a few hundred times per second, not per access):
 *  - producer: wait for a free slot, decode into it *outside* the
 *    lock (the slot at `head` is invisible to the consumer until
 *    head advances), publish by advancing head;
 *  - consumer (next()): release the previously delivered slot, wait
 *    for head > tail or EOF, deliver the slot at tail. The delivered
 *    buffer stays valid until the following next() call, matching
 *    the AccessSource contract.
 *
 * Resume support: Options::startChunk makes the producer begin at
 *   chunk K; produced() starts at the trace position of chunk K so
 *   samplers and progress accounting stay consistent.
 *
 * Frontend observability: a "trace" metric source exports
 * trace.frontend.* counters (chunks/accesses/bytes decoded, decode
 * busy time, producer stall on a full ring, consumer wait on an
 * empty ring, ring depth) — these feed BenchOutput's scaling
 * section. All counters are wall-clock/plumbing only and excluded
 * from golden equivalence.
 */

#ifndef CONTIG_WORKLOADS_TRACE_SOURCE_HH
#define CONTIG_WORKLOADS_TRACE_SOURCE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "workloads/access_source.hh"
#include "workloads/ctrace.hh"

namespace contig
{

struct TraceSourceOptions
{
    /** First chunk to deliver (checkpoint resume). */
    std::uint64_t startChunk = 0;
    /** Decoded chunks buffered ahead of the consumer. */
    unsigned ringDepth = 4;
};

class TraceReplaySource : public AccessSource
{
  public:
    using Options = TraceSourceOptions;

    explicit TraceReplaySource(const std::string &path,
                               Options opt = {});
    ~TraceReplaySource() override;

    TraceReplaySource(const TraceReplaySource &) = delete;
    TraceReplaySource &operator=(const TraceReplaySource &) = delete;

    std::size_t next(const MemAccess *&chunk) override;

    std::uint64_t produced() const override { return produced_; }
    std::uint64_t total() const override
    { return reader_.totalAccesses(); }
    std::uint64_t chunkAccesses() const override
    { return reader_.chunkAccesses(); }

    const CtraceReader &reader() const { return reader_; }
    std::uint64_t startChunk() const { return startChunk_; }
    /** Chunks handed to the consumer so far. */
    std::uint64_t chunksDelivered() const { return chunksDelivered_; }

  private:
    struct Slot
    {
        std::vector<MemAccess> buf;
        std::size_t n = 0;
    };

    void producerLoop();

    CtraceReader reader_;
    std::uint64_t startChunk_;
    std::uint64_t produced_ = 0;
    std::uint64_t chunksDelivered_ = 0;

    std::vector<Slot> ring_;
    std::mutex m_;
    std::condition_variable canProduce_;
    std::condition_variable canConsume_;
    /** Chunks published / consumed since startChunk (guarded by m_). */
    std::uint64_t head_ = 0;
    std::uint64_t tail_ = 0;
    /** Consumer still reading ring_[tail_ % depth] from the last
     *  next(); the slot is released on the following call. */
    bool holding_ = false;
    bool eof_ = false;
    bool stop_ = false;

    /** Frontend accounting (producer writes, metric source reads). */
    std::atomic<std::uint64_t> chunksDecoded_{0};
    std::atomic<std::uint64_t> accessesDecoded_{0};
    std::atomic<std::uint64_t> bytesDecoded_{0};
    std::atomic<std::uint64_t> decodeNs_{0};
    std::atomic<std::uint64_t> producerStallNs_{0};
    std::atomic<std::uint64_t> consumerWaitNs_{0};

    obs::MetricSource metricSource_;
    std::thread producer_;
};

} // namespace contig

#endif // CONTIG_WORKLOADS_TRACE_SOURCE_HH
