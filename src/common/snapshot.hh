/**
 * @file
 * Versioned binary checkpoint blobs.
 *
 * SnapshotWriter/SnapshotReader are small fixed-width little-endian
 * codecs used by the model classes' save()/restore() hooks to persist
 * all dynamic simulator state (router/VC/buffer occupancy, NI queues,
 * cache/MSHR/DRAM state, SIMT warps, RNG streams, clocks).  The sealed
 * file format carries a magic word, a snapshot format version, and the
 * simulator version string; loading rejects mismatches up front so a
 * checkpoint can never be silently interpreted by an incompatible
 * simulator build (see docs/robustness.md for the compatibility
 * rules).
 *
 * Object identity: several restored containers may reference the same
 * heap object (e.g. all flits of one packet share one Packet).  The
 * writer assigns each distinct pointer a dense reference id via
 * refId(); the first site serializes the contents inline and later
 * sites store just the id.  The reader resolves ids back to the object
 * recreated by the first site.
 */

#ifndef TENOC_COMMON_SNAPSHOT_HH
#define TENOC_COMMON_SNAPSHOT_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace tenoc
{

/** Simulator version string baked into blobs and config hashes. */
const char *simulatorVersion();

/** Bumped whenever the serialized layout of any component changes. */
constexpr std::uint32_t SNAPSHOT_FORMAT_VERSION = 4;

/** Appends primitives to a growing byte buffer (little-endian). */
class SnapshotWriter
{
  public:
    void u8(std::uint8_t v) { buf_.push_back(v); }
    void boolean(bool v) { u8(v ? 1 : 0); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void f64(double v);
    void str(const std::string &s);

    /** Writes a 4-character section marker (corruption tripwire). */
    void tag(const char (&name)[5]);

    /**
     * Identity registry: @return the dense id for `p`, assigning the
     * next id on first sight; `*first` tells the caller whether to
     * serialize the object's contents inline.
     */
    std::uint64_t refId(const void *p, bool *first);

    const std::vector<std::uint8_t> &data() const { return buf_; }

  private:
    std::vector<std::uint8_t> buf_;
    std::unordered_map<const void *, std::uint64_t> refs_;
};

/** Consumes primitives from a byte buffer; panics on underrun or a
 *  section-tag mismatch (a corrupt or out-of-sync blob is a bug in the
 *  save/restore pairing, not a user error). */
class SnapshotReader
{
  public:
    SnapshotReader() = default;
    explicit SnapshotReader(std::vector<std::uint8_t> data)
        : buf_(std::move(data))
    {}

    std::uint8_t u8();
    bool boolean() { return u8() != 0; }
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64();
    std::string str();

    /** Reads and verifies a section marker written by tag(). */
    void tag(const char (&name)[5]);

    /** @return true when every byte has been consumed. */
    bool exhausted() const { return pos_ == buf_.size(); }

    /** Resolves a reference id registered by setRef(). */
    void *ref(std::uint64_t id) const;
    /** Registers the object recreated for reference id `id`. */
    void setRef(std::uint64_t id, void *obj);

  private:
    std::vector<std::uint8_t> buf_;
    std::size_t pos_ = 0;
    std::vector<void *> refs_;
};

/**
 * Seals `body` with the snapshot header (magic, format version,
 * simulator version) into one self-describing blob.
 */
std::vector<std::uint8_t> sealSnapshot(const SnapshotWriter &body);

/**
 * Validates a sealed blob's header and hands the body to `out`.
 * @return false (with `*error` set) on a magic / format-version /
 *         simulator-version mismatch or a truncated blob.
 */
bool openSnapshot(std::vector<std::uint8_t> blob, SnapshotReader &out,
                  std::string *error);

/** Seals and writes `body` to `path`. @return false + error on I/O. */
bool saveSnapshotFile(const std::string &path, const SnapshotWriter &body,
                      std::string *error);

/** Reads, validates, and opens the sealed blob at `path`. */
bool loadSnapshotFile(const std::string &path, SnapshotReader &out,
                      std::string *error);

// --- stat-object codecs shared by the model classes' hooks ---

class Counter;
class Accumulator;
class Histogram;

void saveStat(SnapshotWriter &w, const Counter &c);
void restoreStat(SnapshotReader &r, Counter &c);
void saveStat(SnapshotWriter &w, const Accumulator &a);
void restoreStat(SnapshotReader &r, Accumulator &a);
void saveStat(SnapshotWriter &w, const Histogram &h);
/** Restores a histogram; its bucket count must match the blob. */
void restoreStat(SnapshotReader &r, Histogram &h);

/** Writes a u64 vector with its length. */
void saveU64Vector(SnapshotWriter &w, const std::vector<std::uint64_t> &v);
/** Restores into `v`, whose size must match the blob. */
void restoreU64Vector(SnapshotReader &r, std::vector<std::uint64_t> &v);

} // namespace tenoc

#endif // TENOC_COMMON_SNAPSHOT_HH
