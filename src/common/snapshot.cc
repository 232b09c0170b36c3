#include "common/snapshot.hh"

#include <cstring>
#include <fstream>

#include "common/log.hh"
#include "common/stats.hh"

namespace tenoc
{

namespace
{

constexpr std::uint32_t SNAPSHOT_MAGIC = 0x544e4f43u; // "CONT" LE: TNOC

} // namespace

const char *
simulatorVersion()
{
    // Major.minor of the simulator's serialized-state contract; bumped
    // together with SNAPSHOT_FORMAT_VERSION or whenever a model change
    // alters simulation results for a fixed config.
    return "tenoc-6.2";
}

void
SnapshotWriter::u32(std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
SnapshotWriter::u64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
SnapshotWriter::f64(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
SnapshotWriter::str(const std::string &s)
{
    u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
}

void
SnapshotWriter::tag(const char (&name)[5])
{
    for (int i = 0; i < 4; ++i)
        buf_.push_back(static_cast<std::uint8_t>(name[i]));
}

std::uint64_t
SnapshotWriter::refId(const void *p, bool *first)
{
    auto [it, inserted] = refs_.emplace(p, refs_.size());
    *first = inserted;
    return it->second;
}

std::uint8_t
SnapshotReader::u8()
{
    tenoc_assert(pos_ < buf_.size(), "snapshot underrun at byte ", pos_);
    return buf_[pos_++];
}

std::uint32_t
SnapshotReader::u32()
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(u8()) << (8 * i);
    return v;
}

std::uint64_t
SnapshotReader::u64()
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(u8()) << (8 * i);
    return v;
}

double
SnapshotReader::f64()
{
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
SnapshotReader::str()
{
    const std::uint64_t n = u64();
    tenoc_assert(pos_ + n <= buf_.size(),
                 "snapshot string overruns blob (len ", n, ")");
    std::string s(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                  buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return s;
}

void
SnapshotReader::tag(const char (&name)[5])
{
    char got[5] = {0, 0, 0, 0, 0};
    for (int i = 0; i < 4; ++i)
        got[i] = static_cast<char>(u8());
    tenoc_assert(std::memcmp(got, name, 4) == 0,
                 "snapshot section mismatch: expected '", name, "' got '",
                 got, "' at byte ", pos_ - 4);
}

void *
SnapshotReader::ref(std::uint64_t id) const
{
    tenoc_assert(id < refs_.size(), "unresolved snapshot ref ", id);
    return refs_[id];
}

void
SnapshotReader::setRef(std::uint64_t id, void *obj)
{
    if (id >= refs_.size())
        refs_.resize(id + 1, nullptr);
    tenoc_assert(refs_[id] == nullptr, "duplicate snapshot ref ", id);
    refs_[id] = obj;
}

std::vector<std::uint8_t>
sealSnapshot(const SnapshotWriter &body)
{
    SnapshotWriter header;
    header.u32(SNAPSHOT_MAGIC);
    header.u32(SNAPSHOT_FORMAT_VERSION);
    header.str(simulatorVersion());
    header.u64(body.data().size());
    std::vector<std::uint8_t> blob = header.data();
    blob.insert(blob.end(), body.data().begin(), body.data().end());
    return blob;
}

bool
openSnapshot(std::vector<std::uint8_t> blob, SnapshotReader &out,
             std::string *error)
{
    const auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };
    // Parse the header by hand so a truncated or foreign file yields a
    // diagnosable error instead of the reader's underrun panic.
    std::size_t pos = 0;
    const auto readU32 = [&](std::uint32_t &v) {
        if (pos + 4 > blob.size())
            return false;
        v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(blob[pos++]) << (8 * i);
        return true;
    };
    const auto readU64 = [&](std::uint64_t &v) {
        if (pos + 8 > blob.size())
            return false;
        v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(blob[pos++]) << (8 * i);
        return true;
    };
    std::uint32_t magic = 0, format = 0;
    if (!readU32(magic) || magic != SNAPSHOT_MAGIC)
        return fail("not a tenoc snapshot (bad magic)");
    if (!readU32(format))
        return fail("truncated snapshot header");
    if (format != SNAPSHOT_FORMAT_VERSION)
        return fail("snapshot format version " + std::to_string(format) +
                    " incompatible with this build (expects " +
                    std::to_string(SNAPSHOT_FORMAT_VERSION) + ")");
    std::uint64_t ver_len = 0;
    if (!readU64(ver_len) || pos + ver_len > blob.size())
        return fail("truncated snapshot header");
    const std::string version(
        blob.begin() + static_cast<std::ptrdiff_t>(pos),
        blob.begin() + static_cast<std::ptrdiff_t>(pos + ver_len));
    pos += ver_len;
    if (version != simulatorVersion())
        return fail("snapshot written by simulator version '" + version +
                    "', this build is '" + simulatorVersion() + "'");
    std::uint64_t body_len = 0;
    if (!readU64(body_len) || pos + body_len != blob.size())
        return fail("snapshot body length mismatch");
    out = SnapshotReader(std::vector<std::uint8_t>(
        blob.begin() + static_cast<std::ptrdiff_t>(pos), blob.end()));
    return true;
}

bool
saveSnapshotFile(const std::string &path, const SnapshotWriter &body,
                 std::string *error)
{
    const std::vector<std::uint8_t> blob = sealSnapshot(body);
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os) {
        if (error)
            *error = "cannot open '" + path + "' for writing";
        return false;
    }
    os.write(reinterpret_cast<const char *>(blob.data()),
             static_cast<std::streamsize>(blob.size()));
    os.flush();
    if (!os) {
        if (error)
            *error = "short write to '" + path + "'";
        return false;
    }
    return true;
}

bool
loadSnapshotFile(const std::string &path, SnapshotReader &out,
                 std::string *error)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        if (error)
            *error = "cannot open '" + path + "'";
        return false;
    }
    std::vector<std::uint8_t> blob(
        (std::istreambuf_iterator<char>(is)),
        std::istreambuf_iterator<char>());
    return openSnapshot(std::move(blob), out, error);
}

void
saveStat(SnapshotWriter &w, const Counter &c)
{
    w.u64(c.value());
}

void
restoreStat(SnapshotReader &r, Counter &c)
{
    c.restore(r.u64());
}

void
saveStat(SnapshotWriter &w, const Accumulator &a)
{
    w.u64(a.count());
    w.f64(a.sum());
    w.f64(a.min());
    w.f64(a.max());
}

void
restoreStat(SnapshotReader &r, Accumulator &a)
{
    const std::uint64_t count = r.u64();
    const double sum = r.f64();
    const double min = r.f64();
    const double max = r.f64();
    a.restore(count, sum, min, max);
}

void
saveStat(SnapshotWriter &w, const Histogram &h)
{
    saveU64Vector(w, h.buckets());
    w.u64(h.count());
    w.f64(h.sum());
}

void
restoreStat(SnapshotReader &r, Histogram &h)
{
    std::vector<std::uint64_t> buckets(h.buckets().size());
    restoreU64Vector(r, buckets);
    const std::uint64_t count = r.u64();
    const double sum = r.f64();
    h.restore(std::move(buckets), count, sum);
}

void
saveU64Vector(SnapshotWriter &w, const std::vector<std::uint64_t> &v)
{
    w.u64(v.size());
    for (const std::uint64_t x : v)
        w.u64(x);
}

void
restoreU64Vector(SnapshotReader &r, std::vector<std::uint64_t> &v)
{
    const std::uint64_t n = r.u64();
    tenoc_assert(n == v.size(), "vector length mismatch in snapshot");
    for (std::uint64_t &x : v)
        x = r.u64();
}

} // namespace tenoc
