/**
 * @file
 * Chip implementation.
 */

#include "accel/chip.hh"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "dram/gddr3.hh"
#include "telemetry/telemetry.hh"

namespace tenoc
{

/** Core-side memory port: turns line requests into NoC packets. */
class Chip::CorePort : public CoreMemPort
{
  public:
    CorePort(Chip &chip, NodeId node) : chip_(chip), node_(node) {}

    bool
    canSendRequests(unsigned n) const override
    {
        return chip_.net_->injectSpace(node_, 0) >= n;
    }

    void
    sendRead(Addr line) override
    {
        send(MemOp::READ_REQUEST, line);
    }

    void
    sendWrite(Addr line) override
    {
        send(MemOp::WRITE_REQUEST, line);
    }

  private:
    void
    send(MemOp op, Addr line)
    {
        auto pkt = makePacket();
        pkt->src = node_;
        pkt->op = op;
        pkt->protoClass = 0;
        pkt->addr = line;
        pkt->sizeFlits = chip_.net_->packetFlits(op);
        pkt->sizeBytes = memOpBytes(op);
        const unsigned mc = channelOf(line, chip_.params_.mc.numChannels,
                                      chip_.params_.mc.interleaveBytes);
        pkt->dst = chip_.topology().mcNodes()[mc];
        chip_.net_->inject(std::move(pkt), chip_.icnt_now_);
    }

    Chip &chip_;
    NodeId node_;
};

/** Core-side packet sink: read replies wake waiting warps. */
class Chip::CoreSink : public PacketSink
{
  public:
    explicit CoreSink(SimtCore &core) : core_(core) {}

    bool
    tryReserve(const Packet &pkt) override
    {
        (void)pkt;
        return true; // cores always accept replies (MSHR bounded)
    }

    void
    deliver(PacketPtr pkt, Cycle now) override
    {
        (void)now;
        tenoc_assert(pkt->op == MemOp::READ_REPLY,
                     "core received a non-reply packet");
        core_.onReadReply(pkt->addr);
    }

  private:
    SimtCore &core_;
};

Chip::Chip(const ChipParams &params, const KernelProfile &profile)
    : params_(params), profile_(profile)
{
    buildNetwork();
    const Topology &topo = net_->topology();

    core_dom_ = clocks_.addDomain("core", params_.coreClockMhz);
    icnt_dom_ = clocks_.addDomain("icnt", params_.icntClockMhz);
    mem_dom_ = clocks_.addDomain("mem", params_.memClockMhz);

    // MC nodes.
    McNodeParams mc_params = params_.mc;
    mc_params.niQueueCap = params_.mesh.ni.injQueueCap;
    mc_params.l2.profileHitRate = profile_.l2HitRate;
    mc_params.l2.sizeBytes = 128 * 1024; // Table II
    mc_params.l2.ways = 8;
    unsigned mc_index = 0;
    for (NodeId n : topo.mcNodes()) {
        mcs_.push_back(std::make_unique<McNode>(
            n, mc_index, mc_params, *net_,
            params_.seed + 31 * mc_index));
        net_->setSink(n, mcs_.back().get());
        ++mc_index;
    }

    core_nodes_ = topo.computeNodes();
    for (unsigned core_id = 0; core_id < core_nodes_.size(); ++core_id) {
        const NodeId n = core_nodes_[core_id];
        ports_.push_back(std::make_unique<CorePort>(*this, n));
        cores_.push_back(std::make_unique<SimtCore>(
            core_id, params_.core, profile_, *ports_.back(),
            params_.seed));
        sinks_.push_back(std::make_unique<CoreSink>(*cores_.back()));
        net_->setSink(n, sinks_.back().get());
    }

    buildStatModel();
}

Chip::~Chip() = default;

void
Chip::buildStatModel()
{
    stats_root_.addValue("core_cycles", [this] {
        return static_cast<double>(core_now_);
    });
    stats_root_.addValue("icnt_cycles", [this] {
        return static_cast<double>(icnt_now_);
    });
    stats_root_.addValue("mem_cycles", [this] {
        return static_cast<double>(mem_now_);
    });
    stats_root_.addValue("scalar_insts", [this] {
        std::uint64_t n = 0;
        for (const auto &c : cores_)
            n += c->scalarInsts();
        return static_cast<double>(n);
    });
    stats_root_.addValue("ipc", [this] {
        std::uint64_t n = 0;
        for (const auto &c : cores_)
            n += c->scalarInsts();
        return core_now_
            ? static_cast<double>(n) / core_now_ : 0.0;
    });

    net_->stats().registerStats(net_group_);
    stats_root_.addChild(&net_group_);

    for (std::size_t i = 0; i < cores_.size(); ++i) {
        core_groups_.push_back(std::make_unique<StatGroup>(
            "core" + std::to_string(i)));
        cores_[i]->registerStats(*core_groups_.back());
        stats_root_.addChild(core_groups_.back().get());
    }
    for (std::size_t i = 0; i < mcs_.size(); ++i) {
        mc_groups_.push_back(std::make_unique<StatGroup>(
            "mc" + std::to_string(i)));
        mcs_[i]->registerStats(*mc_groups_.back());
        dram_groups_.push_back(std::make_unique<StatGroup>("dram"));
        mcs_[i]->dram().registerStats(*dram_groups_.back());
        mc_groups_.back()->addChild(dram_groups_.back().get());
        stats_root_.addChild(mc_groups_.back().get());
    }
}

void
Chip::attachTelemetry(telemetry::TelemetryHub &hub)
{
    hub_ = &hub;
    net_->attachTelemetry(hub);
    auto *sampler = hub.sampler();
    if (!sampler)
        return;
    sampler->addCounter("scalar_insts", [this] {
        std::uint64_t n = 0;
        for (const auto &c : cores_)
            n += c->scalarInsts();
        return static_cast<double>(n);
    });
    sampler->addCounterVector(
        "core_insts", cores_.size(), [this](std::size_t i) {
            return static_cast<double>(cores_[i]->scalarInsts());
        });
    sampler->addCounter("dram_row_hits", [this] {
        std::uint64_t n = 0;
        for (const auto &mc : mcs_)
            n += mc->dram().rowHits();
        return static_cast<double>(n);
    });
    sampler->addCounter("mc_stall_cycles", [this] {
        std::uint64_t n = 0;
        for (const auto &mc : mcs_)
            n += mc->stallCycles();
        return static_cast<double>(n);
    });
    sampler->addCounter("flits_injected", [this] {
        return static_cast<double>(net_->stats().flitsInjected);
    });
    sampler->addCounter("flits_ejected", [this] {
        return static_cast<double>(net_->stats().flitsEjected);
    });
}

void
Chip::buildNetwork()
{
    switch (params_.netKind) {
      case NetKind::MESH:
        net_ = std::make_unique<MeshNetwork>(params_.mesh);
        break;
      case NetKind::DOUBLE:
        net_ = std::make_unique<DoubleNetwork>(params_.mesh);
        break;
      case NetKind::PERFECT:
      case NetKind::BW_LIMITED: {
        IdealNetworkParams ip;
        ip.topo = params_.mesh.topo;
        ip.flitBytes = params_.mesh.flitBytes;
        ip.bandwidthLimited =
            (params_.netKind == NetKind::BW_LIMITED);
        ip.flitsPerCycle = params_.idealFlitsPerCycle;
        net_ = std::make_unique<IdealNetwork>(ip);
        break;
      }
    }
}

bool
Chip::allCoresDone() const
{
    for (const auto &c : cores_)
        if (!c->done())
            return false;
    return true;
}

void
Chip::icntTick()
{
    for (auto &mc : mcs_)
        mc->icntCycle(icnt_now_);
    net_->cycle(icnt_now_);
    ++icnt_now_;
    if (hub_)
        hub_->tick(icnt_now_);
}

void
Chip::coreTick()
{
    for (auto &c : cores_)
        c->cycle(core_now_);
    ++core_now_;
}

void
Chip::memTick()
{
    for (auto &mc : mcs_)
        mc->memCycle(mem_now_);
    ++mem_now_;
}

ChipResult
Chip::run()
{
    bool timed_out = false;
    auto tick = [&] {
        const auto &ticked = clocks_.advance();
        if (ticked[mem_dom_])
            memTick();
        if (ticked[icnt_dom_])
            icntTick();
        if (ticked[core_dom_])
            coreTick();
        if (icnt_now_ >= params_.maxIcntCycles) {
            warn("chip run hit the cycle cap (", params_.maxIcntCycles,
                 " icnt cycles) for workload ", profile_.abbr);
            if (!net_->drained()) {
                // Undrained traffic at the cap smells like deadlock:
                // dump the network's wait-for state for diagnosis.
                const std::string report =
                    net_->diagnosticReport(icnt_now_);
                if (!report.empty())
                    warn("network diagnostic snapshot:\n", report);
            }
            timed_out = true;
        }
        return !timed_out;
    };
    auto quiescent = [&] {
        if (!net_->drained())
            return false;
        for (const auto &mc : mcs_)
            if (!mc->idle())
                return false;
        return true;
    };

    const unsigned kernels = std::max(1u, profile_.numKernels);
    for (unsigned kernel = 0; kernel < kernels; ++kernel) {
        while (!allCoresDone() && tick()) {
        }
        if (timed_out || kernel + 1 == kernels)
            break; // the final launch needs no barrier
        // Kernel-launch barrier: drain every in-flight packet and
        // DRAM operation before the next launch (Sec. II's software-
        // managed coherence flushes between kernels).
        while (!quiescent() && tick()) {
        }
        if (timed_out)
            break;
        for (auto &c : cores_)
            c->restart();
    }
    if (hub_)
        hub_->finish(icnt_now_);
    return collect(timed_out);
}

ChipResult
Chip::collect(bool timed_out) const
{
    ChipResult r;
    r.timedOut = timed_out;
    r.coreCycles = core_now_;
    r.icntCycles = icnt_now_;
    r.memCycles = mem_now_;
    for (const auto &c : cores_)
        r.scalarInsts += c->scalarInsts();
    r.ipc = r.coreCycles
        ? static_cast<double>(r.scalarInsts) / r.coreCycles : 0.0;

    double stall_sum = 0.0;
    double eff_sum = 0.0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    for (const auto &mc : mcs_) {
        stall_sum += mc->stallFraction();
        r.mcStallFractionMax =
            std::max(r.mcStallFractionMax, mc->stallFraction());
        eff_sum += mc->dram().efficiency();
        hits += mc->dram().rowHits();
        misses += mc->dram().rowMisses();
    }
    if (!mcs_.empty()) {
        r.mcStallFractionMean = stall_sum / mcs_.size();
        r.dramEfficiency = eff_sum / mcs_.size();
    }
    r.dramRowHitRate = (hits + misses)
        ? static_cast<double>(hits) / (hits + misses) : 0.0;

    const auto &stats =
        const_cast<Chip *>(this)->net_->stats();
    r.mcInjectionRate = stats.injectionRate(topology().mcNodes());
    {
        std::uint64_t mc_bytes = 0;
        std::uint64_t core_bytes = 0;
        for (NodeId n : topology().mcNodes())
            mc_bytes += stats.nodeInjectedBytes[n];
        for (NodeId n : core_nodes_)
            core_bytes += stats.nodeInjectedBytes[n];
        const double mc_per = mcs_.empty()
            ? 0.0 : static_cast<double>(mc_bytes) / mcs_.size();
        const double core_per = core_nodes_.empty()
            ? 0.0 : static_cast<double>(core_bytes) / core_nodes_.size();
        r.mcToCoreInjectionRatio =
            core_per > 0.0 ? mc_per / core_per : 0.0;
    }
    r.avgNetLatency = stats.netLatency.mean();
    r.avgTotalLatency = stats.totalLatency.mean();
    r.acceptedBytesPerNode = stats.acceptedBytesPerCyclePerNode();
    r.packetsEjected = stats.packetsEjected;
    return r;
}

} // namespace tenoc
