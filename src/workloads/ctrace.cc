#include "workloads/ctrace.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "base/logging.hh"
#include "base/serialize.hh"

namespace contig
{

namespace
{

std::uint64_t
fnv1a(std::uint64_t h, const void *data, std::size_t n)
{
    const std::uint8_t *p = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001B3ull;
    }
    return h;
}

std::uint64_t
fnv1aU64(std::uint64_t h, std::uint64_t v)
{
    return fnv1a(h, &v, sizeof v);
}

std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

bool
getVarint(const std::uint8_t *p, std::size_t n, std::size_t &off,
          std::uint64_t &v)
{
    v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        if (off >= n)
            return false;
        const std::uint8_t b = p[off++];
        v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
        if (!(b & 0x80))
            return true;
    }
    return false;
}

void
putU32(std::uint8_t *p, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void
putU64(std::uint8_t *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t
getU32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
getU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

} // namespace

std::uint64_t
ctraceDigest(std::string_view workload, std::uint64_t seed,
             std::uint64_t accesses, std::uint64_t run_index)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    h = fnv1a(h, workload.data(), workload.size());
    h = fnv1aU64(h, seed);
    h = fnv1aU64(h, accesses);
    h = fnv1aU64(h, run_index);
    return h;
}

std::string
ctraceRunPath(std::string_view prefix, std::uint64_t run_index)
{
    return std::string(prefix) + ".run" + std::to_string(run_index) +
           ".ctrace";
}

std::string
ckptRunPath(std::string_view prefix, std::uint64_t run_index)
{
    return std::string(prefix) + ".run" + std::to_string(run_index) +
           ".ckpt";
}

void
ctraceEncodeChunk(const MemAccess *a, std::size_t n,
                  std::vector<std::uint8_t> &out)
{
    std::uint64_t prev_pc = 0;
    std::uint64_t prev_va = 0;
    for (std::size_t i = 0; i < n; ++i) {
        putVarint(out, zigzag(static_cast<std::int64_t>(a[i].pc -
                                                        prev_pc)));
        putVarint(out, zigzag(static_cast<std::int64_t>(a[i].va.value -
                                                        prev_va)));
        prev_pc = a[i].pc;
        prev_va = a[i].va.value;
    }
}

bool
ctraceDecodeChunk(const std::uint8_t *enc, std::size_t enc_bytes,
                  std::size_t count, MemAccess *out)
{
    std::size_t off = 0;
    std::uint64_t prev_pc = 0;
    std::uint64_t prev_va = 0;
    for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t dpc, dva;
        if (!getVarint(enc, enc_bytes, off, dpc) ||
            !getVarint(enc, enc_bytes, off, dva))
            return false;
        prev_pc += static_cast<std::uint64_t>(unzigzag(dpc));
        prev_va += static_cast<std::uint64_t>(unzigzag(dva));
        out[i].pc = prev_pc;
        out[i].va = Gva{prev_va};
    }
    return off == enc_bytes;
}

CtraceWriter::CtraceWriter(const std::string &path,
                           std::uint64_t config_digest,
                           std::uint64_t chunk_accesses,
                           std::uint64_t total_accesses)
    : path_(path), f_(std::fopen(path.c_str(), "wb")),
      configDigest_(config_digest), chunkAccesses_(chunk_accesses),
      totalAccesses_(total_accesses)
{
    if (!f_)
        fatal("cannot open trace output '%s': %s", path_.c_str(),
              std::strerror(errno));
    // Reserve the header slot; finish() seeks back and fills it in.
    const std::uint8_t zero[kCtraceHeaderBytes] = {};
    std::fwrite(zero, 1, sizeof zero, f_);
}

CtraceWriter::~CtraceWriter()
{
    finish();
}

void
CtraceWriter::appendChunk(const MemAccess *a, std::size_t n)
{
    contig_assert(!finished_, "appendChunk after finish");
    contig_assert(n <= 0xFFFFFFFFull, "chunk too large for .ctrace");
    enc_.clear();
    ctraceEncodeChunk(a, n, enc_);
    IndexEntry e;
    e.offset = kCtraceHeaderBytes + bytesEncoded_;
    e.encodedBytes = static_cast<std::uint32_t>(enc_.size());
    e.accessCount = static_cast<std::uint32_t>(n);
    e.crc = crc32(enc_.data(), enc_.size());
    if (std::fwrite(enc_.data(), 1, enc_.size(), f_) != enc_.size())
        fatal("short write to trace output '%s'", path_.c_str());
    index_.push_back(e);
    bytesEncoded_ += enc_.size();
    accessesWritten_ += n;
}

void
CtraceWriter::finish()
{
    if (finished_)
        return;
    finished_ = true;
    contig_assert(accessesWritten_ == totalAccesses_,
                  "trace capture ended early: %llu of %llu accesses",
                  static_cast<unsigned long long>(accessesWritten_),
                  static_cast<unsigned long long>(totalAccesses_));

    // Chunk index + its CRC.
    std::vector<std::uint8_t> raw(index_.size() * kCtraceIndexEntryBytes);
    for (std::size_t i = 0; i < index_.size(); ++i) {
        std::uint8_t *p = raw.data() + i * kCtraceIndexEntryBytes;
        putU64(p + 0, index_[i].offset);
        putU32(p + 8, index_[i].encodedBytes);
        putU32(p + 12, index_[i].accessCount);
        putU32(p + 16, index_[i].crc);
        putU32(p + 20, 0);
    }
    const std::uint64_t index_offset = kCtraceHeaderBytes + bytesEncoded_;
    // An empty capture has no index, and an empty vector's data() may
    // be null, which fwrite must not be passed. The CRC still follows.
    if (!raw.empty() &&
        std::fwrite(raw.data(), 1, raw.size(), f_) != raw.size())
        fatal("short write to trace output '%s'", path_.c_str());
    std::uint8_t crcbuf[4];
    putU32(crcbuf, crc32(raw.data(), raw.size()));
    std::fwrite(crcbuf, 1, 4, f_);

    // Seal the header.
    std::uint8_t hdr[kCtraceHeaderBytes] = {};
    putU32(hdr + 0, kCtraceMagic);
    putU32(hdr + 4, kCtraceVersion);
    putU64(hdr + 8, configDigest_);
    putU64(hdr + 16, totalAccesses_);
    putU64(hdr + 24, chunkAccesses_);
    putU64(hdr + 32, index_.size());
    putU64(hdr + 40, index_offset);
    putU32(hdr + 48, 0); // flags
    // Bytes 52..59 reserved (zero); CRC covers everything before it.
    putU32(hdr + 60, crc32(hdr, 60));
    std::fseek(f_, 0, SEEK_SET);
    if (std::fwrite(hdr, 1, sizeof hdr, f_) != sizeof hdr)
        fatal("short write to trace output '%s'", path_.c_str());
    if (std::fclose(f_) != 0)
        fatal("cannot close trace output '%s': %s", path_.c_str(),
              std::strerror(errno));
    f_ = nullptr;
}

CtraceReader::CtraceReader(const std::string &path) : path_(path)
{
    fd_ = ::open(path.c_str(), O_RDONLY);
    if (fd_ < 0)
        fatal("cannot open trace '%s': %s", path_.c_str(),
              std::strerror(errno));
    struct stat st;
    if (::fstat(fd_, &st) != 0)
        fatal("cannot stat trace '%s': %s", path_.c_str(),
              std::strerror(errno));
    size_ = static_cast<std::size_t>(st.st_size);
    if (size_ < kCtraceHeaderBytes)
        fatal("truncated .ctrace '%s': %zu bytes, header needs %zu",
              path_.c_str(), size_, kCtraceHeaderBytes);
    void *m = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd_, 0);
    if (m == MAP_FAILED)
        fatal("cannot mmap trace '%s': %s", path_.c_str(),
              std::strerror(errno));
    map_ = static_cast<const std::uint8_t *>(m);

    if (getU32(map_ + 0) != kCtraceMagic)
        fatal("'%s' is not a .ctrace file: bad magic 0x%08x",
              path_.c_str(), getU32(map_ + 0));
    version_ = getU32(map_ + 4);
    if (version_ != kCtraceVersion)
        fatal(".ctrace version mismatch in '%s': file is v%u, this"
              " build reads v%u",
              path_.c_str(), version_, kCtraceVersion);
    if (getU32(map_ + 60) != crc32(map_, 60))
        fatal(".ctrace header CRC mismatch in '%s'", path_.c_str());
    configDigest_ = getU64(map_ + 8);
    totalAccesses_ = getU64(map_ + 16);
    chunkAccesses_ = getU64(map_ + 24);
    chunkCount_ = getU64(map_ + 32);
    const std::uint64_t index_offset = getU64(map_ + 40);

    const std::uint64_t index_bytes =
        chunkCount_ * kCtraceIndexEntryBytes;
    if (index_offset < kCtraceHeaderBytes ||
        index_offset + index_bytes + 4 > size_)
        fatal("truncated .ctrace '%s': index [%llu, +%llu+4) exceeds"
              " file size %zu",
              path_.c_str(), static_cast<unsigned long long>(index_offset),
              static_cast<unsigned long long>(index_bytes), size_);
    const std::uint8_t *raw = map_ + index_offset;
    if (getU32(raw + index_bytes) != crc32(raw, index_bytes))
        fatal(".ctrace index CRC mismatch in '%s'", path_.c_str());

    index_.resize(chunkCount_);
    std::uint64_t accesses = 0;
    for (std::uint64_t i = 0; i < chunkCount_; ++i) {
        const std::uint8_t *p = raw + i * kCtraceIndexEntryBytes;
        index_[i].offset = getU64(p + 0);
        index_[i].encodedBytes = getU32(p + 8);
        index_[i].accessCount = getU32(p + 12);
        index_[i].crc = getU32(p + 16);
        if (index_[i].offset < kCtraceHeaderBytes ||
            index_[i].offset + index_[i].encodedBytes > index_offset)
            fatal("corrupt .ctrace '%s': chunk %llu payload out of"
                  " bounds",
                  path_.c_str(), static_cast<unsigned long long>(i));
        accesses += index_[i].accessCount;
    }
    if (accesses != totalAccesses_)
        fatal("corrupt .ctrace '%s': index sums to %llu accesses,"
              " header says %llu",
              path_.c_str(), static_cast<unsigned long long>(accesses),
              static_cast<unsigned long long>(totalAccesses_));
}

CtraceReader::~CtraceReader()
{
    if (map_)
        ::munmap(const_cast<std::uint8_t *>(map_), size_);
    if (fd_ >= 0)
        ::close(fd_);
}

std::uint32_t
CtraceReader::chunkAccessCount(std::uint64_t k) const
{
    contig_assert(k < chunkCount_, "chunk index out of range");
    return index_[k].accessCount;
}

std::uint32_t
CtraceReader::chunkEncodedBytes(std::uint64_t k) const
{
    contig_assert(k < chunkCount_, "chunk index out of range");
    return index_[k].encodedBytes;
}

std::uint64_t
CtraceReader::accessesBeforeChunk(std::uint64_t k) const
{
    contig_assert(k <= chunkCount_, "chunk index out of range");
    std::uint64_t n = 0;
    for (std::uint64_t i = 0; i < k; ++i)
        n += index_[i].accessCount;
    return n;
}

std::size_t
CtraceReader::decodeChunk(std::uint64_t k,
                          std::vector<MemAccess> &out) const
{
    contig_assert(k < chunkCount_, "chunk index out of range");
    const IndexEntry &e = index_[k];
    const std::uint8_t *enc = map_ + e.offset;
    if (crc32(enc, e.encodedBytes) != e.crc)
        fatal(".ctrace chunk %llu CRC mismatch in '%s' — the file is"
              " corrupt",
              static_cast<unsigned long long>(k), path_.c_str());
    out.resize(e.accessCount);
    if (!ctraceDecodeChunk(enc, e.encodedBytes, e.accessCount,
                           out.data()))
        fatal(".ctrace chunk %llu decode error in '%s'",
              static_cast<unsigned long long>(k), path_.c_str());
    return e.accessCount;
}

void
CtraceReader::requireDigest(std::uint64_t expected) const
{
    if (configDigest_ != expected)
        fatal(".ctrace config digest mismatch in '%s': file has"
              " 0x%016llx, this run expects 0x%016llx — the trace was"
              " captured from a different workload/seed/access-count"
              " (or a different run index within the bench)",
              path_.c_str(),
              static_cast<unsigned long long>(configDigest_),
              static_cast<unsigned long long>(expected));
}

} // namespace contig
