/**
 * @file
 * Structure-of-arrays storage for the mesh hot state.
 *
 * All per-(router, port, VC) state of one network lives in flat
 * parallel arrays owned by a single VcSlabs arena instead of
 * pointer-rich per-object storage:
 *
 *   - input-VC state machines: pipeline state, assigned output port,
 *     granted output VC — one contiguous array each, indexed by a
 *     global input-VC index (router's base + port * vcs + vc),
 *   - flit buffers: one ring of `vcDepth` slots per input VC, all
 *     rings packed back to back in one flit slab (ring i occupies
 *     slots [i*depth, (i+1)*depth)),
 *   - output-VC bookkeeping: owned flag, owning input (port, VC) and
 *     credit count, indexed by a global output-VC index.
 *
 * Routers receive contiguous index ranges in node order at network
 * construction, so the ActiveSet's ascending-index iteration streams
 * the arrays front to back.  Standalone routers (unit tests) own a
 * private arena with the same layout.
 *
 * The arena is pure storage: every state-machine transition still
 * happens in Router/InputPort code, so the refactor is invisible to
 * stats and the invariant checker.
 */

#ifndef TENOC_NOC_SLAB_HH
#define TENOC_NOC_SLAB_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "noc/flit.hh"

namespace tenoc
{

/** Pipeline state of one input virtual channel. */
enum class VcState : std::uint8_t
{
    IDLE,     ///< no packet being routed through this VC
    VC_ALLOC, ///< route known, awaiting an output VC
    ACTIVE    ///< output VC held; flits may traverse the switch
};

/** SoA arena for one network's router/VC/flit hot state. */
class VcSlabs
{
  public:
    VcSlabs() = default;
    /// Movable (a moved-from arena holds no rings), never copied: two
    /// copies would both return their tails' packet references.
    VcSlabs(VcSlabs &&) = default;
    VcSlabs &operator=(const VcSlabs &) = delete;
    ~VcSlabs() { releaseTails(); }

    /**
     * Allocates (or re-initializes, reusing capacity) storage for
     * `input_vcs` input VCs with `depth`-flit rings and `output_vcs`
     * output VCs.  All state resets to IDLE/unowned/zero-credit.
     */
    void
    configure(std::size_t input_vcs, std::size_t output_vcs,
              unsigned depth)
    {
        tenoc_assert(depth >= 1, "slab ring depth must be >= 1");
        // A re-used arena must not pin the packets its tails own; walk
        // the rings while depth_ still describes them.
        releaseTails();
        depth_ = depth;
        inState.assign(input_vcs, VcState::IDLE);
        inOutPort.assign(input_vcs, 0);
        inOutVc.assign(input_vcs, 0);
        inBaseVc.assign(input_vcs, 0);
        ringHead.assign(input_vcs, 0);
        ringCount.assign(input_vcs, 0);
        flits.assign(input_vcs * depth, Flit{});
        outOwned.assign(output_vcs, 0);
        outOwnerIn.assign(output_vcs, 0);
        outOwnerVc.assign(output_vcs, 0);
        outCredits.assign(output_vcs, 0);
    }

    unsigned depth() const { return depth_; }
    std::size_t numInputVcs() const { return inState.size(); }
    std::size_t numOutputVcs() const { return outOwned.size(); }

    /**
     * Arms out-of-range index checking on the ring operations (the
     * state arrays are accessed through already-checked ring indices).
     * Wired to MeshNetworkParams::validate / TENOC_VALIDATE=1.
     */
    void setValidate(bool on) { validate_ = on; }
    bool validate() const { return validate_; }

    // --- flit rings (index = global input-VC index) ---

    /** Appends a flit to ring `vc_idx`; panics on overflow (a credit
     *  protocol violation). */
    void
    pushFlit(std::size_t vc_idx, const Flit &flit)
    {
        if (validate_) {
            tenoc_assert(vc_idx < ringCount.size(),
                         "slab input-VC index ", vc_idx,
                         " out of range ", ringCount.size());
        }
        const std::uint32_t count = ringCount[vc_idx];
        tenoc_assert(count < depth_,
                     "VC buffer overflow (credit protocol violated),"
                     " slab vc index=", vc_idx);
        std::size_t pos = ringHead[vc_idx] + count;
        if (pos >= depth_)
            pos -= depth_;
        flits[vc_idx * depth_ + pos] = flit;
        ringCount[vc_idx] = count + 1;
    }

    /** Removes and returns the head flit of ring `vc_idx`. */
    Flit
    popFlit(std::size_t vc_idx)
    {
        if (validate_) {
            tenoc_assert(vc_idx < ringCount.size(),
                         "slab input-VC index ", vc_idx,
                         " out of range ", ringCount.size());
        }
        tenoc_assert(ringCount[vc_idx] != 0, "pop() on empty VC");
        const std::uint32_t head = ringHead[vc_idx];
        const Flit f = flits[vc_idx * depth_ + head];
        ringHead[vc_idx] = head + 1 == depth_ ? 0 : head + 1;
        --ringCount[vc_idx];
        return f;
    }

    /** Head flit of ring `vc_idx` (must be non-empty). */
    const Flit &
    frontFlit(std::size_t vc_idx) const
    {
        tenoc_assert(ringCount[vc_idx] != 0, "front() on empty VC");
        return flits[vc_idx * depth_ + ringHead[vc_idx]];
    }

    /** Calls f(flit) for each flit of ring `vc_idx`, head first. */
    template <typename F>
    void
    forEachRingFlit(std::size_t vc_idx, F &&f) const
    {
        const std::size_t base = vc_idx * depth_;
        std::size_t pos = ringHead[vc_idx];
        for (std::uint32_t i = 0; i < ringCount[vc_idx]; ++i) {
            f(flits[base + pos]);
            if (++pos == depth_)
                pos = 0;
        }
    }

    /** Returns the packet references that buffered tail flits own (see
     *  Flit) and empties every ring. */
    void
    releaseTails()
    {
        for (std::size_t i = 0; i < ringCount.size(); ++i) {
            forEachRingFlit(i, [](const Flit &f) {
                if (f.tail)
                    PacketPtr::adopt(f.pkt).reset();
            });
            ringCount[i] = 0;
        }
    }

    // --- input-VC state machines ---
    std::vector<VcState> inState;
    std::vector<std::uint32_t> inOutPort; ///< RC-assigned output port
    std::vector<std::uint32_t> inOutVc;   ///< VA-granted output VC
    /// First eligible output VC of the head packet, cached by RC so VA
    /// never dereferences the packet.
    std::vector<std::uint32_t> inBaseVc;

    // --- output-VC bookkeeping ---
    std::vector<std::uint8_t> outOwned;
    std::vector<std::uint32_t> outOwnerIn;
    std::vector<std::uint32_t> outOwnerVc;
    std::vector<std::uint32_t> outCredits;

    // --- flit rings ---
    std::vector<std::uint32_t> ringHead;
    std::vector<std::uint32_t> ringCount;
    std::vector<Flit> flits;

  private:
    unsigned depth_ = 1;
    bool validate_ = false;
};

/**
 * SoA arena for one network's NI hot state, mirroring VcSlabs: all
 * per-NI injection class queues, per-(port, VC) active-packet slots
 * and per-port ejection buffers live in flat parallel arrays indexed
 * in node order, replacing the per-object std::deque storage.  Every
 * container is a fixed-capacity ring (the NI protocol already bounds
 * class queues by injQueueCap and ejection ports by ejBufferFlits),
 * so the steady state touches no heap.  Injection-port and
 * ejection-port counts vary per node (multi-port MC routers), hence
 * the per-NI base offsets.  Standalone NIs (unit tests) own a private
 * arena with the same layout.
 */
class NiSlabs
{
  public:
    NiSlabs() = default;
    NiSlabs(const NiSlabs &) = delete;
    NiSlabs &operator=(const NiSlabs &) = delete;
    ~NiSlabs() { releaseEjTails(); }

    /**
     * Allocates (or re-initializes) storage for one NI per entry of
     * `inj_ports`/`ej_ports`: `classes` class queues of `inj_cap`
     * packets each, inj_ports[n] * `vcs` active slots, and ej_ports[n]
     * ejection rings of `ej_cap` flits.
     */
    void
    configure(const std::vector<unsigned> &inj_ports, unsigned vcs,
              unsigned classes, unsigned inj_cap,
              const std::vector<unsigned> &ej_ports, unsigned ej_cap)
    {
        tenoc_assert(inj_ports.size() == ej_ports.size(),
                     "NI slab port-count vectors disagree");
        tenoc_assert(classes >= 1 && inj_cap >= 1 && ej_cap >= 1,
                     "NI slab capacities must be >= 1");
        releaseEjTails(); // while ej_cap_ still describes the rings
        const std::size_t nis = inj_ports.size();
        classes_ = classes;
        inj_cap_ = inj_cap;
        ej_cap_ = ej_cap;
        slotBase.resize(nis);
        ejPortBase.resize(nis);
        std::size_t slots = 0, eports = 0;
        for (std::size_t n = 0; n < nis; ++n) {
            slotBase[n] = slots;
            ejPortBase[n] = eports;
            slots += std::size_t{inj_ports[n]} * vcs;
            eports += ej_ports[n];
        }
        pendingInject.assign(nis, 0);
        ejOccupancy.assign(nis, 0);
        const std::size_t queues = nis * classes;
        injQHead.assign(queues, 0);
        injQCount.assign(queues, 0);
        // assign() releases the packet references a re-used arena's
        // queues and active slots still hold.
        injQ.assign(queues * inj_cap, PacketPtr{});
        actValid.assign(slots, 0);
        actNext.assign(slots, 0);
        actPkt.assign(slots, PacketPtr{});
        actFlits.assign(slots, std::vector<Flit>{});
        ejHead.assign(eports, 0);
        ejCount.assign(eports, 0);
        ejFlits.assign(eports * ej_cap, Flit{});
    }

    unsigned classes() const { return classes_; }
    unsigned injCap() const { return inj_cap_; }
    unsigned ejCap() const { return ej_cap_; }

    // --- injection class queues (index = ni * classes + class) ---

    std::uint32_t qSize(std::size_t q) const { return injQCount[q]; }

    void
    qPush(std::size_t q, PacketPtr &&pkt)
    {
        const std::uint32_t count = injQCount[q];
        tenoc_assert(count < inj_cap_, "NI slab class-queue overflow");
        std::size_t pos = injQHead[q] + count;
        if (pos >= inj_cap_)
            pos -= inj_cap_;
        injQ[q * inj_cap_ + pos] = std::move(pkt);
        injQCount[q] = count + 1;
    }

    const PacketPtr &
    qFront(std::size_t q) const
    {
        tenoc_assert(injQCount[q] != 0, "front() on empty class queue");
        return injQ[q * inj_cap_ + injQHead[q]];
    }

    PacketPtr
    qPop(std::size_t q)
    {
        tenoc_assert(injQCount[q] != 0, "pop() on empty class queue");
        const std::uint32_t head = injQHead[q];
        PacketPtr p = std::move(injQ[q * inj_cap_ + head]);
        injQHead[q] = head + 1 == inj_cap_ ? 0 : head + 1;
        --injQCount[q];
        return p;
    }

    /** Calls f(pkt) for each queued packet of queue `q`, FIFO order. */
    template <typename F>
    void
    forEachQueued(std::size_t q, F &&f) const
    {
        const std::size_t base = q * inj_cap_;
        std::size_t pos = injQHead[q];
        for (std::uint32_t i = 0; i < injQCount[q]; ++i) {
            f(injQ[base + pos]);
            if (++pos == inj_cap_)
                pos = 0;
        }
    }

    // --- ejection rings (index = ejPortBase[ni] + port) ---

    std::uint32_t ejSize(std::size_t p) const { return ejCount[p]; }

    void
    ejPush(std::size_t p, const Flit &flit)
    {
        const std::uint32_t count = ejCount[p];
        tenoc_assert(count < ej_cap_, "NI slab ejection-ring overflow");
        std::size_t pos = ejHead[p] + count;
        if (pos >= ej_cap_)
            pos -= ej_cap_;
        ejFlits[p * ej_cap_ + pos] = flit;
        ejCount[p] = count + 1;
    }

    const Flit &
    ejFront(std::size_t p) const
    {
        tenoc_assert(ejCount[p] != 0, "front() on empty ejection ring");
        return ejFlits[p * ej_cap_ + ejHead[p]];
    }

    Flit
    ejPop(std::size_t p)
    {
        tenoc_assert(ejCount[p] != 0, "pop() on empty ejection ring");
        const std::uint32_t head = ejHead[p];
        const Flit f = ejFlits[p * ej_cap_ + head];
        ejHead[p] = head + 1 == ej_cap_ ? 0 : head + 1;
        --ejCount[p];
        return f;
    }

    /** Calls f(flit) for each buffered flit of ring `p`, FIFO order. */
    template <typename F>
    void
    forEachEjFlit(std::size_t p, F &&f) const
    {
        const std::size_t base = p * ej_cap_;
        std::size_t pos = ejHead[p];
        for (std::uint32_t i = 0; i < ejCount[p]; ++i) {
            f(ejFlits[base + pos]);
            if (++pos == ej_cap_)
                pos = 0;
        }
    }

    /** Returns the packet references that tail flits in the ejection
     *  rings own (see Flit) and empties the rings. */
    void
    releaseEjTails()
    {
        for (std::size_t p = 0; p < ejCount.size(); ++p) {
            forEachEjFlit(p, [](const Flit &f) {
                if (f.tail)
                    PacketPtr::adopt(f.pkt).reset();
            });
            ejCount[p] = 0;
        }
    }

    // --- per-NI counters (contiguous early-out scans) ---
    /// Packets queued or mid-injection at each NI.
    std::vector<std::uint32_t> pendingInject;
    /// Flits buffered across each NI's ejection ports.
    std::vector<std::uint32_t> ejOccupancy;

    // --- per-NI base offsets ---
    /// First active-slot index of each NI (slots = port * vcs + vc).
    std::vector<std::size_t> slotBase;
    /// First ejection-ring index of each NI.
    std::vector<std::size_t> ejPortBase;

    // --- active packet slots (index = slotBase[ni] + port*vcs + vc) ---
    std::vector<std::uint8_t> actValid;
    std::vector<std::uint32_t> actNext;
    std::vector<PacketPtr> actPkt;
    /// Flitized packet; cleared (capacity kept) when the slot frees.
    /// These flits own nothing: actPkt holds the reference until the
    /// tail is injected.
    std::vector<std::vector<Flit>> actFlits;

    // --- injection class-queue rings ---
    std::vector<std::uint32_t> injQHead;
    std::vector<std::uint32_t> injQCount;
    std::vector<PacketPtr> injQ;

    // --- ejection rings ---
    std::vector<std::uint32_t> ejHead;
    std::vector<std::uint32_t> ejCount;
    std::vector<Flit> ejFlits;

  private:
    unsigned classes_ = 1;
    unsigned inj_cap_ = 1;
    unsigned ej_cap_ = 1;
};

} // namespace tenoc

#endif // TENOC_NOC_SLAB_HH
