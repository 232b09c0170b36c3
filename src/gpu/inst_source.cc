/**
 * @file
 * InstSource implementations.
 */

#include "gpu/inst_source.hh"

#include <cctype>
#include <fstream>
#include <sstream>

#include "common/log.hh"

namespace tenoc
{

ProfileInstSource::ProfileInstSource(const KernelProfile &profile,
                                     unsigned core_id,
                                     unsigned num_warps,
                                     unsigned line_bytes,
                                     unsigned warp_size)
    : profile_(profile), coalescer_(warp_size)
{
    streams_.reserve(num_warps);
    for (unsigned w = 0; w < num_warps; ++w) {
        // Warps interleave through a shared per-core region (adjacent
        // warps touch adjacent lines, as in coalesced CUDA kernels).
        const Addr core_base = static_cast<Addr>(core_id) << 34;
        streams_.emplace_back(core_base, w, num_warps, profile_,
                              line_bytes);
    }
}

unsigned
ProfileInstSource::numWarps() const
{
    return static_cast<unsigned>(streams_.size());
}

std::uint64_t
ProfileInstSource::warpLength(unsigned warp) const
{
    (void)warp;
    return profile_.warpInstsPerWarp;
}

void
ProfileInstSource::decode(unsigned warp, Warp::PendingInst &out,
                          Rng &rng)
{
    out.isMem = rng.nextBool(profile_.memFraction);
    if (out.isMem) {
        out.isStore = !rng.nextBool(profile_.loadFraction);
        out.lines =
            coalescer_.coalesce(profile_, streams_[warp], rng);
    } else {
        out.isStore = false;
        out.lines.clear();
    }
}

std::unique_ptr<TraceInstSource>
TraceInstSource::fromText(const std::string &text)
{
    auto src = std::unique_ptr<TraceInstSource>(new TraceInstSource);
    std::istringstream is(text);
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream ls(line);
        unsigned warp = 0;
        std::string op;
        if (!(ls >> warp >> op))
            continue; // blank/comment line
        if (warp >= src->per_warp_.size())
            src->per_warp_.resize(warp + 1);
        Warp::PendingInst inst;
        if (op == "A" || op == "a") {
            inst.isMem = false;
        } else if (op == "L" || op == "l" || op == "S" || op == "s") {
            inst.isMem = true;
            inst.isStore = (op == "S" || op == "s");
            std::string tok;
            while (ls >> tok) {
                try {
                    inst.lines.push_back(std::stoull(tok, nullptr, 0));
                } catch (const std::exception &) {
                    tenoc_fatal("trace line ", line_no,
                                ": bad address '", tok, "'");
                }
            }
            if (inst.lines.empty())
                tenoc_fatal("trace line ", line_no,
                            ": memory op without addresses");
        } else {
            tenoc_fatal("trace line ", line_no, ": unknown op '", op,
                        "' (expected A, L, or S)");
        }
        src->per_warp_[warp].push_back(std::move(inst));
    }
    if (src->per_warp_.empty())
        tenoc_fatal("trace contains no instructions");
    src->cursor_.assign(src->per_warp_.size(), 0);
    return src;
}

std::unique_ptr<TraceInstSource>
TraceInstSource::fromFile(const std::string &path)
{
    std::ifstream f(path);
    if (!f)
        tenoc_fatal("cannot open trace file '", path, "'");
    std::stringstream ss;
    ss << f.rdbuf();
    return fromText(ss.str());
}

void
TraceInstSource::rewind()
{
    std::fill(cursor_.begin(), cursor_.end(), 0);
}

unsigned
TraceInstSource::numWarps() const
{
    return static_cast<unsigned>(per_warp_.size());
}

std::uint64_t
TraceInstSource::warpLength(unsigned warp) const
{
    return warp < per_warp_.size() ? per_warp_[warp].size() : 0;
}

void
TraceInstSource::decode(unsigned warp, Warp::PendingInst &out,
                        Rng &rng)
{
    (void)rng;
    tenoc_assert(warp < per_warp_.size() &&
                 cursor_[warp] < per_warp_[warp].size(),
                 "trace replay past end of warp ", warp);
    const auto &inst = per_warp_[warp][cursor_[warp]++];
    out.isMem = inst.isMem;
    out.isStore = inst.isStore;
    out.lines = inst.lines;
}

} // namespace tenoc
