/**
 * @file
 * McNode implementation.
 */

#include "accel/mc_node.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/snapshot.hh"

namespace tenoc
{

McNode::McNode(NodeId node, unsigned index, const McNodeParams &params,
               Network &net, std::uint64_t seed)
    : node_(node), index_(index), params_(params), net_(net),
      l2_(params.l2, seed ^ 0xabcd1234ULL), dram_(params.dram)
{}

bool
McNode::tryReserve(const Packet &pkt)
{
    (void)pkt;
    if (input_queue_.size() + reserved_ >= params_.inputQueueCap)
        return false;
    ++reserved_;
    return true;
}

void
McNode::deliver(PacketPtr pkt, Cycle now)
{
    (void)now;
    tenoc_assert(reserved_ > 0, "deliver without reservation");
    --reserved_;
    tenoc_assert(isRequest(pkt->op), "MC received a non-request");
    input_queue_.push_back(std::move(pkt));
}

void
McNode::icntCycle(Cycle icnt_now)
{
    ++icnt_cycles_;

    // 1. Reply injection: keep only a shallow window queued in the NI
    //    so network backpressure reaches the DRAM read-out quickly;
    //    count cycles where replies wait on the network (Fig. 11).
    bool progressed = false;
    while (!reply_queue_.empty()) {
        const unsigned space = net_.injectSpace(node_, 1);
        const unsigned used = space >= params_.niQueueCap
            ? 0u : params_.niQueueCap - space;
        if (used >= params_.niReplyDepth)
            break;
        injectReply(std::move(reply_queue_.front()), icnt_now);
        reply_queue_.pop_front();
        progressed = true;
    }
    if (!reply_queue_.empty() && !progressed)
        ++stall_cycles_;

    // 2. Release L2-hit replies whose latency elapsed.
    while (!l2_pipe_.empty() && l2_pipe_.front().readyAt <= icnt_now) {
        reply_queue_.push_back(std::move(l2_pipe_.front().pkt));
        l2_pipe_.pop_front();
    }

    // 2b. Dirty L2 victims (real-tag mode) become DRAM writes.
    while (!l2_writebacks_.empty() && dram_.canAccept()) {
        DramRequest req;
        req.localAddr =
            compactAddress(l2_writebacks_.front(),
                           params_.numChannels,
                           params_.interleaveBytes);
        req.write = true;
        req.tag = next_dram_tag_++;
        dram_pending_[req.tag] =
            PendingDram{INVALID_NODE, l2_writebacks_.front(), true};
        dram_.push(std::move(req), mem_now_);
        l2_writebacks_.pop_front();
    }

    // 3. Retry a request stalled on the DRAM queue.
    if (dram_wait_ && dram_.canAccept()) {
        PacketPtr pkt = std::move(dram_wait_);
        dram_wait_.reset();
        DramRequest req;
        req.localAddr = compactAddress(pkt->addr, params_.numChannels,
                                       params_.interleaveBytes);
        req.write = (pkt->op == MemOp::WRITE_REQUEST);
        req.tag = next_dram_tag_++;
        dram_pending_[req.tag] =
            PendingDram{pkt->src, pkt->addr, req.write};
        dram_.push(std::move(req), mem_now_);
    }

    // 4. One L2 lookup per interconnect cycle.
    if (dram_wait_ || input_queue_.empty())
        return;
    PacketPtr pkt = std::move(input_queue_.front());
    input_queue_.pop_front();
    ++requests_served_;

    const bool is_write = (pkt->op == MemOp::WRITE_REQUEST);
    const auto res = l2_.access(pkt->addr, is_write);
    if (res.hit) {
        if (!is_write) {
            auto reply = makePacket();
            reply->src = node_;
            reply->dst = pkt->src;
            reply->op = MemOp::READ_REPLY;
            reply->protoClass = 1;
            reply->addr = pkt->addr;
            reply->sizeFlits = net_.packetFlits(MemOp::READ_REPLY);
            reply->sizeBytes = memOpBytes(MemOp::READ_REPLY);
            l2_pipe_.push_back(
                DelayedReply{std::move(reply),
                             icnt_now + params_.l2HitLatency});
        }
        // Writes that hit are absorbed by the L2 (writeback bank).
        return;
    }

    // L2 miss: go to DRAM (writes are no-allocate at the L2 and go
    // straight to memory; reads allocate on return).
    if (dram_.canAccept()) {
        DramRequest req;
        req.localAddr = compactAddress(pkt->addr, params_.numChannels,
                                       params_.interleaveBytes);
        req.write = is_write;
        req.tag = next_dram_tag_++;
        dram_pending_[req.tag] =
            PendingDram{pkt->src, pkt->addr, is_write};
        dram_.push(std::move(req), mem_now_);
    } else {
        dram_wait_ = std::move(pkt); // head-of-line: MC input blocked
    }
}

void
McNode::memCycle(Cycle mem_now)
{
    mem_now_ = mem_now;
    dram_.cycle(mem_now);

    // Read out completed requests while the reply path has room.
    while (reply_queue_.size() + l2_pipe_.size() <
           params_.replyQueueSoftCap) {
        auto done = dram_.popCompleted();
        if (!done)
            break;
        auto it = dram_pending_.find(done->tag);
        tenoc_assert(it != dram_pending_.end(),
                     "DRAM completed unknown tag");
        const PendingDram meta = it->second;
        dram_pending_.erase(it);
        if (meta.write)
            continue; // writes are fire-and-forget
        if (const auto victim = l2_.fill(meta.addr, false))
            l2_writebacks_.push_back(*victim);
        auto reply = makePacket();
        reply->src = node_;
        reply->dst = meta.requester;
        reply->op = MemOp::READ_REPLY;
        reply->protoClass = 1;
        reply->addr = meta.addr;
        reply->sizeFlits = net_.packetFlits(MemOp::READ_REPLY);
        reply->sizeBytes = memOpBytes(MemOp::READ_REPLY);
        reply_queue_.push_back(std::move(reply));
    }
}

void
McNode::injectReply(PacketPtr reply, Cycle icnt_now)
{
    net_.inject(std::move(reply), icnt_now);
}

bool
McNode::idle() const
{
    return input_queue_.empty() && l2_pipe_.empty() &&
        reply_queue_.empty() && dram_pending_.empty() && !dram_wait_ &&
        l2_writebacks_.empty() && dram_.idle();
}

void
McNode::registerStats(StatGroup &group) const
{
    group.addValue("requests_served", [this] {
        return static_cast<double>(requests_served_);
    });
    group.addValue("stall_cycles", [this] {
        return static_cast<double>(stall_cycles_);
    });
    group.addValue("icnt_cycles", [this] {
        return static_cast<double>(icnt_cycles_);
    });
    group.addValue("stall_fraction",
                   [this] { return stallFraction(); });
}

void
McNode::save(SnapshotWriter &w) const
{
    w.tag("MCND");
    l2_.save(w);
    dram_.save(w);
    w.u32(reserved_);
    w.u64(input_queue_.size());
    for (const PacketPtr &pkt : input_queue_)
        savePacket(w, pkt);
    w.u64(l2_pipe_.size());
    for (const DelayedReply &dr : l2_pipe_) {
        savePacket(w, dr.pkt);
        w.u64(dr.readyAt);
    }
    // Sorted by tag so the blob is independent of hash-map iteration
    // order (identical state must hash to identical bytes).
    std::vector<std::uint64_t> tags;
    tags.reserve(dram_pending_.size());
    for (const auto &[tag, pending] : dram_pending_)
        tags.push_back(tag);
    std::sort(tags.begin(), tags.end());
    w.u64(tags.size());
    for (const std::uint64_t tag : tags) {
        const PendingDram &pending = dram_pending_.at(tag);
        w.u64(tag);
        w.u32(pending.requester);
        w.u64(pending.addr);
        w.boolean(pending.write);
    }
    w.u64(next_dram_tag_);
    w.boolean(dram_wait_ != nullptr);
    if (dram_wait_)
        savePacket(w, dram_wait_);
    w.u64(reply_queue_.size());
    for (const PacketPtr &pkt : reply_queue_)
        savePacket(w, pkt);
    w.u64(l2_writebacks_.size());
    for (const Addr addr : l2_writebacks_)
        w.u64(addr);
    w.u64(stall_cycles_);
    w.u64(icnt_cycles_);
    w.u64(requests_served_);
    w.u64(mem_now_);
}

void
McNode::restore(SnapshotReader &r)
{
    r.tag("MCND");
    l2_.restore(r);
    dram_.restore(r);
    reserved_ = r.u32();
    input_queue_.clear();
    const std::uint64_t nin = r.u64();
    for (std::uint64_t i = 0; i < nin; ++i)
        input_queue_.push_back(loadPacket(r));
    l2_pipe_.clear();
    const std::uint64_t npipe = r.u64();
    for (std::uint64_t i = 0; i < npipe; ++i) {
        DelayedReply dr;
        dr.pkt = loadPacket(r);
        dr.readyAt = r.u64();
        l2_pipe_.push_back(std::move(dr));
    }
    dram_pending_.clear();
    const std::uint64_t npend = r.u64();
    for (std::uint64_t i = 0; i < npend; ++i) {
        const std::uint64_t tag = r.u64();
        PendingDram pending;
        pending.requester = r.u32();
        pending.addr = r.u64();
        pending.write = r.boolean();
        dram_pending_.emplace(tag, pending);
    }
    next_dram_tag_ = r.u64();
    dram_wait_.reset();
    if (r.boolean())
        dram_wait_ = loadPacket(r);
    reply_queue_.clear();
    const std::uint64_t nreply = r.u64();
    for (std::uint64_t i = 0; i < nreply; ++i)
        reply_queue_.push_back(loadPacket(r));
    l2_writebacks_.clear();
    const std::uint64_t nwb = r.u64();
    for (std::uint64_t i = 0; i < nwb; ++i)
        l2_writebacks_.push_back(r.u64());
    stall_cycles_ = r.u64();
    icnt_cycles_ = r.u64();
    requests_served_ = r.u64();
    mem_now_ = r.u64();
}

} // namespace tenoc
