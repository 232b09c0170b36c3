/**
 * @file
 * Dense record storage for the mesh hot state.
 *
 * All per-(router, port, VC) state of one network lives in one
 * VcSlabs arena instead of pointer-rich per-object storage:
 *
 *   - one 16-byte InVc record per input VC: pipeline state, assigned
 *     output port, granted output VC, cached base VC, the flit ring's
 *     head and count, and the enqueue cycle of the ring's head flit,
 *     indexed by a global input-VC index (router's base + port * vcs +
 *     vc),
 *   - flit buffers: one ring of `vcDepth` slots per input VC, all
 *     rings packed back to back in one flit slab (ring i occupies
 *     slots [i*depth, (i+1)*depth)),
 *   - one 8-byte OutVc record per output VC: credit count, owned flag
 *     and owning input (port, VC), indexed by a global output-VC index.
 *
 * A router visit reads a VC's whole state from one record instead of
 * one line of each of a dozen parallel arrays, and switch allocation
 * decides a candidate from its InVc and OutVc records without loading
 * the flit ring.  Routers receive contiguous index ranges in node
 * order at network construction, so the ActiveSet's ascending-index
 * iteration streams the records front to back.  The network owns its
 * two arenas (VcSlabs here, NiSlabs below); every router and NI only
 * views its range of them.
 *
 * Packets: a queued or mid-injection packet is owned by its NiSlabs
 * slot (a PacketPtr); once its tail is injected, the tail flit owns it
 * (see Flit), so an arena destroyed or re-configured mid-run deletes
 * the packets of the tails it still buffers.
 *
 * The arena is pure storage plus ring mechanics: every state-machine
 * transition happens in Router code, so the layout is invisible to
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

/**
 * One input VC.  Ports and VCs fit 8 bits because a router takes at
 * most 64 input VCs and 64 outputs (Router::MAX_INPUT_VCS and
 * MAX_OUTPUTS); the ring fields fit 16 bits because a ring holds at
 * most VcSlabs::MAX_DEPTH flits.
 */
struct InVc
{
    /// Enqueue cycle of the ring's head flit, kept by push and pop
    /// (meaningful while ringCount != 0).
    Cycle headAt = 0;
    std::uint16_t ringHead = 0;
    std::uint16_t ringCount = 0;
    VcState state = VcState::IDLE;
    std::uint8_t outPort = 0; ///< RC-assigned output port
    std::uint8_t outVc = 0;   ///< VA-granted output VC
    /// First eligible output VC of the head packet, cached by RC so VA
    /// never dereferences the packet.
    std::uint8_t baseVc = 0;
};
static_assert(sizeof(InVc) == 16, "an input-VC record is 16 bytes");

/** One output VC: downstream credits and the input VC that owns it. */
struct OutVc
{
    std::uint32_t credits = 0;
    std::uint8_t owned = 0;
    std::uint8_t ownerIn = 0; ///< owning input port (owned only)
    std::uint8_t ownerVc = 0; ///< owning input VC (owned only)
};
static_assert(sizeof(OutVc) == 8, "an output-VC record is 8 bytes");

/** Record arena for one network's router/VC/flit hot state. */
class VcSlabs
{
  public:
    /** Deepest ring InVc's 16-bit head and count fields can hold. */
    static constexpr unsigned MAX_DEPTH = 0xffff;

    VcSlabs() = default;
    /// Movable (a moved-from arena holds no rings), never copied: two
    /// copies would both delete their tails' packets.
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
        tenoc_assert(depth >= 1 && depth <= MAX_DEPTH,
                     "slab ring depth must be in [1, ", MAX_DEPTH,
                     "], got ", depth);
        // A re-used arena must not pin the packets its tails own; walk
        // the rings while depth_ still describes them.
        releaseTails();
        depth_ = depth;
        in.assign(input_vcs, InVc{});
        out.assign(output_vcs, OutVc{});
        flits.assign(input_vcs * depth, Flit{});
    }

    unsigned depth() const { return depth_; }
    std::size_t numInputVcs() const { return in.size(); }
    std::size_t numOutputVcs() const { return out.size(); }

    /**
     * Arms out-of-range index checking on the ring operations (the
     * records are accessed through already-checked ring indices).
     * Wired to MeshNetworkParams::validate / TENOC_VALIDATE=1.
     */
    void setValidate(bool on) { validate_ = on; }
    bool validate() const { return validate_; }

    // --- flit rings (index = global input-VC index) ---

    /** Appends `flit` to ring `vc_idx`, stamping its enqueue cycle
     *  `now`; panics on overflow (a credit protocol violation). */
    void
    pushFlit(std::size_t vc_idx, Flit flit, Cycle now)
    {
        checkIndex(vc_idx);
        InVc &v = in[vc_idx];
        const unsigned count = v.ringCount;
        tenoc_assert(count < depth_,
                     "VC buffer overflow (credit protocol violated),"
                     " slab vc index=", vc_idx);
        flit.enqueueCycle = now;
        if (count == 0)
            v.headAt = now;
        std::size_t pos = v.ringHead + count;
        if (pos >= depth_)
            pos -= depth_;
        flits[vc_idx * depth_ + pos] = flit;
        v.ringCount = static_cast<std::uint16_t>(count + 1);
    }

    /** Removes and returns the head flit of ring `vc_idx`. */
    Flit
    popFlit(std::size_t vc_idx)
    {
        checkIndex(vc_idx);
        InVc &v = in[vc_idx];
        tenoc_assert(v.ringCount != 0, "pop() on empty VC");
        const std::size_t base = vc_idx * depth_;
        const Flit f = flits[base + v.ringHead];
        v.ringHead = static_cast<std::uint16_t>(
            v.ringHead + 1u == depth_ ? 0 : v.ringHead + 1u);
        if (--v.ringCount != 0)
            v.headAt = flits[base + v.ringHead].enqueueCycle;
        return f;
    }

    /** Head flit of ring `vc_idx` (must be non-empty). */
    const Flit &
    frontFlit(std::size_t vc_idx) const
    {
        tenoc_assert(in[vc_idx].ringCount != 0, "front() on empty VC");
        return flits[vc_idx * depth_ + in[vc_idx].ringHead];
    }

    /** Calls f(flit) for each flit of ring `vc_idx`, head first. */
    template <typename F>
    void
    forEachRingFlit(std::size_t vc_idx, F &&f) const
    {
        const std::size_t base = vc_idx * depth_;
        std::size_t pos = in[vc_idx].ringHead;
        for (unsigned i = 0; i < in[vc_idx].ringCount; ++i) {
            f(flits[base + pos]);
            if (++pos == depth_)
                pos = 0;
        }
    }

    /** Deletes the packets that buffered tail flits own (see Flit)
     *  and empties every ring. */
    void
    releaseTails()
    {
        for (std::size_t i = 0; i < in.size(); ++i) {
            forEachRingFlit(i, [](const Flit &f) {
                if (f.tail)
                    PacketDeleter{}(f.pkt);
            });
            in[i].ringCount = 0;
        }
    }

    std::vector<InVc> in;   ///< input-VC records
    std::vector<OutVc> out; ///< output-VC records
    std::vector<Flit> flits; ///< the rings, back to back

  private:
    void
    checkIndex(std::size_t vc_idx) const
    {
        if (validate_) {
            tenoc_assert(vc_idx < in.size(), "slab input-VC index ",
                         vc_idx, " out of range ", in.size());
        }
    }

    unsigned depth_ = 1;
    bool validate_ = false;
};

/**
 * Arena for one network's NI hot state, mirroring VcSlabs: all per-NI
 * injection class queues, per-(port, VC) active-packet slots and
 * per-port ejection buffers live in flat parallel arrays indexed in
 * node order, replacing the per-object std::deque storage.  Every
 * container is a fixed-capacity ring (the NI protocol already bounds
 * class queues by injQueueCap and ejection ports by ejBufferFlits),
 * so the steady state touches no heap.  Injection-port and
 * ejection-port counts vary per node (multi-port MC routers), hence
 * the per-NI base offsets.  An active slot holds only its packet and
 * the index of the next flit to inject; the NI builds that flit when
 * it streams it (makeFlit).
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
        // clear() returns the packets a re-used arena's queues and
        // active slots still own.
        injQ.clear();
        injQ.resize(queues * inj_cap);
        injQBase.assign(queues * inj_cap, 0);
        actNext.assign(slots, 0);
        actPkt.clear();
        actPkt.resize(slots);
        ejHead.assign(eports, 0);
        ejCount.assign(eports, 0);
        ejFlits.assign(eports * ej_cap, Flit{});
    }

    unsigned classes() const { return classes_; }
    unsigned injCap() const { return inj_cap_; }
    unsigned ejCap() const { return ej_cap_; }

    // --- injection class queues (index = ni * classes + class) ---

    std::uint32_t qSize(std::size_t q) const { return injQCount[q]; }

    /** Appends `pkt` to queue `q` with its VcMap::baseVc, `base`. */
    void
    qPush(std::size_t q, PacketPtr &&pkt, unsigned base)
    {
        const std::uint32_t count = injQCount[q];
        tenoc_assert(count < inj_cap_, "NI slab class-queue overflow");
        std::size_t pos = injQHead[q] + count;
        if (pos >= inj_cap_)
            pos -= inj_cap_;
        pos += q * inj_cap_;
        injQ[pos] = std::move(pkt);
        injQBase[pos] = static_cast<std::uint8_t>(base);
        injQCount[q] = count + 1;
    }

    /** Cached base VC of queue `q`'s front packet (must be non-empty). */
    unsigned
    qFrontBase(std::size_t q) const
    {
        tenoc_assert(injQCount[q] != 0, "front() on empty class queue");
        return injQBase[q * inj_cap_ + injQHead[q]];
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

    /** Calls f(pkt, cached base VC) for each queued packet of queue
     *  `q`, FIFO order. */
    template <typename F>
    void
    forEachQueued(std::size_t q, F &&f) const
    {
        const std::size_t base = q * inj_cap_;
        std::size_t pos = injQHead[q];
        for (std::uint32_t i = 0; i < injQCount[q]; ++i) {
            f(injQ[base + pos], injQBase[base + pos]);
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

    /** Deletes the packets that tail flits in the ejection rings own
     *  (see Flit) and empties the rings. */
    void
    releaseEjTails()
    {
        for (std::size_t p = 0; p < ejCount.size(); ++p) {
            forEachEjFlit(p, [](const Flit &f) {
                if (f.tail)
                    PacketDeleter{}(f.pkt);
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
    /// Index of the next flit the slot injects.
    std::vector<std::uint32_t> actNext;
    /// The slot's packet; null when the slot is free.  Injecting the
    /// tail detaches it, handing the packet to the tail flit.
    std::vector<PacketPtr> actPkt;

    // --- injection class-queue rings ---
    std::vector<std::uint32_t> injQHead;
    std::vector<std::uint32_t> injQCount;
    std::vector<PacketPtr> injQ;
    /// VcMap::baseVc of each queued packet, stored at enqueue so the
    /// NI picks a slot without dereferencing the packet.
    std::vector<std::uint8_t> injQBase;

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
