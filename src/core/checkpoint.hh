/**
 * @file
 * Simulator checkpoints. A .ckpt snapshot captures a translation
 * replay run at a chunk boundary of its .ctrace input so the run can
 * stop and later resume byte-identically:
 *
 *  - meta: the trace config digest and the replay position (chunk
 *    index + accesses done), keying the snapshot to one exact trace;
 *  - engine blob: the ReplayEngine's full pipeline state (TLBs /
 *    walker caches / SpOT / range TLB, stats, replay position) —
 *    restored exactly on resume;
 *  - kernel blobs: one per participating kernel (native: the
 *    process's kernel; virtualized: guest then host). Kernel state is
 *    NOT restored from the blob — translation replay never mutates
 *    kernel state, so a resumed run rebuilds the kernel by re-running
 *    the deterministic workload setup, then re-serializes it and
 *    byte-compares against the blob to prove the rebuild matches.
 *
 * On-disk layout: 'CCKP' magic + version, then a Serializer stream of
 * tagged sections, then a trailing crc32 over everything before it.
 * Any mismatch (magic, version, CRC, digest, section tag, kernel
 * bytes) is fatal with a message naming what broke.
 */

#ifndef CONTIG_CORE_CHECKPOINT_HH
#define CONTIG_CORE_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace contig
{

class Kernel;
class ReplayEngine;

constexpr std::uint32_t kCkptMagic = 0x504b4343u; // "CCKP" little-endian
/**
 * v2: the engine blob holds one pipeline (no shard count or loads).
 * v3: the kernel blob's zone sections hold the buddy lists only (no
 * per-CPU frame-cache lists).
 */
constexpr std::uint32_t kCkptVersion = 3;

/** Where in which trace the snapshot was taken. */
struct CkptMeta
{
    std::uint64_t traceDigest = 0; //!< ctraceDigest of the trace replayed
    std::uint64_t chunk = 0;       //!< chunks fully replayed
    std::uint64_t accesses = 0;    //!< accesses fully replayed
};

class Checkpoint
{
  public:
    /**
     * Snapshot `engine` (between replayChunk calls) and the listed
     * kernels to `path`. Kernel order is the restore-verify order:
     * native runs pass {&kernel}; virtualized runs pass
     * {&guest, &host}.
     */
    static void write(const std::string &path, const CkptMeta &meta,
                      const ReplayEngine &engine,
                      const std::vector<const Kernel *> &kernels);

    /** Load and validate (magic/version/CRC) a snapshot file. */
    explicit Checkpoint(const std::string &path);

    const CkptMeta &meta() const { return meta_; }

    /**
     * Restore the engine's state and verify each kernel: the live
     * kernel is re-serialized and byte-compared against the stored
     * blob; a mismatch is fatal naming the kernel index. Kernel list
     * must match the one passed to write() in length and order.
     */
    void restore(ReplayEngine &engine,
                 const std::vector<const Kernel *> &kernels) const;

  private:
    std::string path_;
    CkptMeta meta_;
    std::vector<std::uint8_t> engineBlob_;
    std::vector<std::vector<std::uint8_t>> kernelBlobs_;
};

} // namespace contig

#endif // CONTIG_CORE_CHECKPOINT_HH
