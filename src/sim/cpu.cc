#include "sim/cpu.hh"

#include <algorithm>

#include "check/invariants.hh"
#include "obs/phase.hh"
#include "obs/registry.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"
#include "obs/why.hh"
#include "util/panic.hh"

namespace eip::sim {

namespace {
constexpr size_t kMaxGroupInsts = 64; ///< cap on one fetch group
} // namespace

Cpu::Cpu(const SimConfig &config)
    : cfg(config),
      l1i_(std::make_unique<Cache>(config.l1i)),
      l1d_(std::make_unique<Cache>(config.l1d)),
      l2_(std::make_unique<Cache>(config.l2)),
      llc_(std::make_unique<Cache>(config.llc)),
      dram_(std::make_unique<Dram>(config.dramLatency, config.dramJitter)),
      vmem(config.vmemSeed),
      direction(config.predictor == SimConfig::Predictor::Perceptron
          ? static_cast<DirectionPredictor *>(new PerceptronPredictor(
                config.perceptronRows, config.perceptronHistory))
          : static_cast<DirectionPredictor *>(
                new GsharePredictor(config.gshareBits))),
      btb(config.btbEntries, config.btbWays),
      ras(config.rasEntries),
      itc(config.itcEntries),
      ftq(config.ftqEntries),
      rob(config.robEntries)
{
    l1i_->setNextLevel(l2_.get());
    l1d_->setNextLevel(l2_.get());
    l2_->setNextLevel(llc_.get());
    llc_->setDram(dram_.get());

    // Warming fidelity (see setWarmMshrThrottle): the data-side levels
    // drop accesses under MSHR pressure in the timed paths, so their
    // warm misses must contend for MSHRs too. The L1I retries instead.
    l1d_->setWarmMshrThrottle(true);
    l2_->setWarmMshrThrottle(true);
    llc_->setWarmMshrThrottle(true);

    if (check::checksEnabled()) {
        checks_ = std::make_unique<check::Invariants>();
        registerInvariants();
    }
}

Cpu::~Cpu() = default;

void
Cpu::attachL1iPrefetcher(Prefetcher *pf)
{
    l1iPrefetcher = pf;
    l1i_->attachPrefetcher(pf);
    if (checks_ != nullptr && pf != nullptr)
        pf->registerInvariants(*checks_);
    if (why_ != nullptr && pf != nullptr)
        pf->enableBlame();
}

void
Cpu::registerInvariants()
{
    // The four stall buckets must partition the zero-fetch cycles —
    // promoted from the former EIP_DASSERT in fetchStage() so Release
    // builds audit it too when checking is on.
    checks_->add("cpu.fetch_stall_partition", [this](std::string &detail) {
        uint64_t sum = fetchStallLineMiss + fetchStallFtqEmptyMispredict +
                       fetchStallFtqEmptyStarved + fetchStallRobFull;
        if (sum == fetchIdleCycles)
            return true;
        detail = "bucket_sum=" + std::to_string(sum) +
                 " fetch_idle_cycles=" + std::to_string(fetchIdleCycles);
        return false;
    });

    // FTQ occupancy: the cached instruction count matches the per-group
    // remainders and respects the configured capacity.
    checks_->add("cpu.ftq_occupancy", [this](std::string &detail) {
        size_t remaining = 0;
        for (const FtqGroup &group : ftq)
            remaining += group.insts.size() - group.consumed;
        if (remaining != ftqInsts) {
            detail = "group_sum=" + std::to_string(remaining) +
                     " ftq_insts=" + std::to_string(ftqInsts);
            return false;
        }
        if (ftqInsts > cfg.ftqEntries) {
            detail = "occupancy " + std::to_string(ftqInsts) + " > " +
                     std::to_string(cfg.ftqEntries);
            return false;
        }
        size_t pending = 0;
        for (const FtqGroup &group : ftq)
            pending += group.accessPending ? 1 : 0;
        if (pending != ftqPendingAccess_) {
            detail = "pending_groups=" + std::to_string(pending) +
                     " ftq_pending_access=" +
                     std::to_string(ftqPendingAccess_);
            return false;
        }
        return true;
    });

    checks_->add("cpu.rob_occupancy", [this](std::string &detail) {
        if (rob.size() <= cfg.robEntries)
            return true;
        detail = "occupancy " + std::to_string(rob.size()) + " > " +
                 std::to_string(cfg.robEntries);
        return false;
    });

    l1i_->registerInvariants(*checks_, "l1i");
    l1d_->registerInvariants(*checks_, "l1d");
    l2_->registerInvariants(*checks_, "l2");
    llc_->registerInvariants(*checks_, "llc");
}

void
Cpu::attachTracer(obs::EventTracer *tracer)
{
    tracer_ = tracer;
    // Both traced event families are L1I-centric (prefetch lifecycle,
    // instruction-fetch stalls); the data side is not traced.
    l1i_->setTracer(tracer);
}

void
Cpu::attachWhy(obs::MissAttribution *why)
{
    why_ = why;
    // Miss attribution is L1I-only: the taxonomy explains instruction
    // misses against the instruction prefetcher.
    l1i_->setWhy(why);
    if (l1iPrefetcher != nullptr && why != nullptr)
        l1iPrefetcher->enableBlame();

    if (checks_ != nullptr && why != nullptr) {
        // The ledger's defining identity: late_partial mirrors the L1I
        // late-prefetch count and the full ledger sums to the demand
        // misses, so the seven other categories partition the uncovered
        // misses exactly (DESIGN.md §3.11).
        checks_->add("why.blame_partition", [this](std::string &detail) {
            const CacheStats &s = l1i_->stats();
            const uint64_t late =
                why_->count(obs::MissBlame::LatePartial);
            const uint64_t total = why_->total();
            if (total == s.demandMisses && late == s.latePrefetches)
                return true;
            detail = "blame_total=" + std::to_string(total) +
                     " late_partial=" + std::to_string(late) +
                     " l1i_demand_misses=" +
                     std::to_string(s.demandMisses) +
                     " l1i_late_prefetches=" +
                     std::to_string(s.latePrefetches);
            return false;
        });
    }
}

Addr
Cpu::l1iLine(Addr pc)
{
    return cfg.physicalL1I ? lineAddr(vmem.translate(pc)) : lineAddr(pc);
}

template <bool Warming>
uint8_t
Cpu::predictBranchImpl(const trace::Instruction &inst)
{
    // One body for the timed and the functional-warming front end: the
    // training and lookup sequence (including LRU touches and history
    // rolls) is identical by construction; warming only elides the
    // branch counters, so statistics stay frozen between detailed
    // windows while the predictors learn exactly as they would have.
    using trace::BranchType;
    if constexpr (!Warming)
        ++branches;

    uint8_t kind = 0; // 0 none, 1 decode-resteer, 2 execute-flush
    lastPredictedPc = inst.nextPc();
    switch (inst.branch) {
      case BranchType::Conditional: {
        bool predicted = direction->predict(inst.pc);
        direction->update(inst.pc, inst.taken);
        if (predicted != inst.taken) {
            if constexpr (!Warming)
                ++branchMispredicts;
            kind = 2;
            // The wrong path: the direction the predictor chose.
            lastPredictedPc =
                predicted ? btb.lookup(inst.pc) : inst.nextPc();
        } else if (inst.taken) {
            Addr btb_target = btb.lookup(inst.pc);
            if (btb_target != inst.target) {
                if constexpr (!Warming)
                    ++btbMisses;
                kind = std::max<uint8_t>(kind, 1);
            }
        }
        if (inst.taken)
            btb.update(inst.pc, inst.target);
        break;
      }
      case BranchType::DirectJump:
      case BranchType::DirectCall: {
        Addr btb_target = btb.lookup(inst.pc);
        if (btb_target != inst.target) {
            if constexpr (!Warming)
                ++btbMisses;
            kind = 1; // direct target is recomputed at decode
        }
        btb.update(inst.pc, inst.target);
        if (inst.branch == BranchType::DirectCall)
            ras.push(inst.nextPc());
        break;
      }
      case BranchType::IndirectJump:
      case BranchType::IndirectCall: {
        Addr predicted = itc.predict(inst.pc);
        if (predicted != inst.target) {
            if constexpr (!Warming)
                ++branchMispredicts;
            kind = 2;
            lastPredictedPc = predicted;
        }
        itc.update(inst.pc, inst.target);
        if (inst.branch == BranchType::IndirectCall)
            ras.push(inst.nextPc());
        break;
      }
      case BranchType::Return: {
        Addr predicted = ras.pop();
        if (predicted != inst.target) {
            if constexpr (!Warming)
                ++branchMispredicts;
            kind = 2;
            lastPredictedPc = predicted;
        }
        break;
      }
      case BranchType::NotBranch:
        EIP_PANIC("predictBranch called on a non-branch");
    }

    if (l1iPrefetcher != nullptr)
        l1iPrefetcher->onBranch(inst.pc, inst.branch, inst.target);
    return kind;
}

uint8_t
Cpu::predictBranch(const trace::Instruction &inst)
{
    return predictBranchImpl<false>(inst);
}

void
Cpu::predictStage(trace::InstructionSource &trace)
{
    if (predictBlockedOnBranch || now < predictStallUntil)
        return;

    for (uint32_t i = 0; i < cfg.predictWidth; ++i) {
        if (ftqInsts >= cfg.ftqEntries)
            return;

        const trace::Instruction inst = trace.next();
        uint8_t mispredict = 0;
        if (inst.isBranch())
            mispredict = predictBranch(inst);

        Addr line = l1iLine(inst.pc);
        bool append = !ftq.empty() && ftq.back().line == line &&
                      ftq.back().insts.size() < kMaxGroupInsts;
        if (!append) {
            // Reuse the ring slot in place: the previous occupant's
            // vector capacities survive, so the steady state allocates
            // nothing (see Ring::pushSlot).
            FtqGroup &group = ftq.pushSlot();
            group.line = line;
            group.ready = kCycleNever;
            group.accessPending = true;
            group.insts.clear();
            group.consumed = 0;
            group.mispredict.clear();
            ++ftqPendingAccess_;
        }
        FtqGroup &tail = ftq.back();
        tail.insts.push_back(inst);
        tail.mispredict.push_back(mispredict);
        ++ftqInsts;

        if (mispredict == 1) {
            // BTB miss on a direct branch: target produced at decode.
            predictStallUntil =
                std::max(predictStallUntil, now + cfg.decodeResteerPenalty);
            return;
        }
        if (mispredict == 2) {
            // Wrong direction / wrong indirect target: the front-end can
            // not continue until the branch resolves at execute. With
            // wrong-path modelling it keeps fetching down the predicted
            // (wrong) path meanwhile.
            predictBlockedOnBranch = true;
            if (cfg.modelWrongPath && lastPredictedPc != 0) {
                wrongPathActive = true;
                wrongPathPc = lastPredictedPc;
            }
            return;
        }
        if (inst.taken)
            return; // at most one taken branch per predict cycle
    }
}

void
Cpu::wrongPathStage()
{
    if (!wrongPathActive)
        return;
    if (!predictBlockedOnBranch) {
        wrongPathActive = false; // the branch resolved: squash
        return;
    }
    // Follow the wrong path sequentially, one line group per cycle (a
    // common wrong-path approximation: no nested control flow).
    for (uint32_t i = 0; i < cfg.wrongPathLinesPerCycle; ++i) {
        l1i_->speculativeAccess(l1iLine(wrongPathPc), wrongPathPc, now);
        wrongPathPc += kLineSize;
    }
}

void
Cpu::l1iAccessStage()
{
    // Fetch-directed prefetching: initiate the L1I access for every line
    // sitting in the FTQ (these count as demand accesses, §IV-A).
    l1iAccessBlocked_ = false;
    for (auto &group : ftq) {
        if (!group.accessPending)
            continue;
        Addr pc = group.insts.empty() ? lineToByte(group.line)
                                      : group.insts.front().pc;
        Cache::Access res = l1i_->demandAccess(group.line, pc, now);
        if (res.mshrFull) {
            // Retry next cycle, in order. Until an L1I fill frees an
            // MSHR the retries are no-ops, which is what lets the
            // scheduler skip over them (see inertWindow).
            l1iAccessBlocked_ = true;
            return;
        }
        group.ready = res.ready;
        group.accessPending = false;
        --ftqPendingAccess_;
    }
}

Cycle
Cpu::backendLatency(const trace::Instruction &inst)
{
    Cycle base = now + cfg.backendDepth;
    if (inst.isLoad) {
        Cache::Access res =
            l1d_->demandAccess(lineAddr(inst.memAddr), inst.pc, now);
        if (res.mshrFull)
            return base + 20;
        return std::max(base + 1, res.ready);
    }
    if (inst.isStore) {
        // Write-allocate; the store buffer hides the latency.
        l1d_->demandAccess(lineAddr(inst.memAddr), inst.pc, now);
        ++l1d_->stats().writeAccesses;
        return base + 1;
    }
    if (inst.isFp)
        return base + 4;
    return base + 1;
}

void
Cpu::fetchStage()
{
    uint32_t budget = cfg.fetchWidth;
    bool lineBlocked = false;
    bool robBlocked = false;
    while (budget > 0 && !ftq.empty()) {
        FtqGroup &group = ftq.front();
        if (group.accessPending || group.ready > now) {
            lineBlocked = true; // instruction line not arrived yet
            break;
        }
        while (budget > 0 && group.consumed < group.insts.size()) {
            if (rob.size() >= cfg.robEntries) {
                robBlocked = true;
                break;
            }
            const trace::Instruction &inst = group.insts[group.consumed];
            uint8_t mispredict = group.mispredict[group.consumed];
            RobEntry entry;
            entry.done = backendLatency(inst);
            entry.mispredict = mispredict;
            if (mispredict == 2) {
                // The branch's resolution time is now known: release the
                // prediction unit after the flush penalty.
                predictStallUntil = std::max(
                    predictStallUntil, entry.done + cfg.executeFlushPenalty);
                predictBlockedOnBranch = false;
            }
            rob.push_back(entry);
            ++group.consumed;
            --budget;
            --ftqInsts;
        }
        if (robBlocked)
            break;
        if (group.consumed == group.insts.size())
            ftq.pop_front();
    }

    if (budget != cfg.fetchWidth) {
        // At least one instruction fetched this cycle.
        if (tracer_ != nullptr)
            tracer_->fetchActive();
        return;
    }

    // Zero-fetch cycle: charge exactly one taxonomy bucket. Block
    // conditions take priority over emptiness (a blocked head FTQ entry
    // is the proximate cause even if the predictor is also stalled);
    // FTQ emptiness splits by whether the front end is waiting on a
    // mispredicted branch (redirect recovery) or simply under-supplied.
    obs::StallReason reason;
    if (lineBlocked)
        reason = obs::StallReason::LineMiss;
    else if (robBlocked)
        reason = obs::StallReason::BackendFull;
    else if (predictBlockedOnBranch || now < predictStallUntil)
        reason = obs::StallReason::FtqEmptyMispredict;
    else
        reason = obs::StallReason::FtqEmptyStarved;
    chargeStall(reason, now, 1);
}

void
Cpu::chargeStall(obs::StallReason reason, Cycle first, uint64_t cycles)
{
    // The partition identity (bucket sum == fetchIdleCycles) is audited
    // by the registered cpu.fetch_stall_partition invariant (src/check),
    // which also covers Release builds when --check is on.
    uint64_t &bucket =
        reason == obs::StallReason::LineMiss      ? fetchStallLineMiss
        : reason == obs::StallReason::BackendFull ? fetchStallRobFull
        : reason == obs::StallReason::FtqEmptyMispredict
            ? fetchStallFtqEmptyMispredict
            : fetchStallFtqEmptyStarved;
    bucket += cycles;
    fetchIdleCycles += cycles;
    if (tracer_ != nullptr)
        tracer_->stallCycle(reason, first, cycles);
}

void
Cpu::retireStage()
{
    uint32_t budget = cfg.retireWidth;
    while (budget > 0 && !rob.empty() && rob.front().done <= now) {
        rob.pop_front();
        ++retired;
        --budget;
    }
}

Cycle
Cpu::nextEventCycle(Cycle bound) const
{
    // Clamped to `bound` (the watchdog) so a deadlocked pipeline trips
    // the deadlock assert at exactly the same cycle as per-cycle
    // simulation; never before now + 1 (an already-due event means the
    // next cycle acts).
    Cycle t = bound;
    auto event = [&](Cycle c) { t = std::min(t, std::max(c, now + 1)); };

    event(l1i_->nextFillReady());
    event(l1d_->nextFillReady());
    event(l2_->nextFillReady());
    event(llc_->nextFillReady());

    // Only the ROB head gates retirement (in-order), so later entries'
    // completion times are not events.
    if (!rob.empty())
        event(rob.front().done);

    // The FTQ head's arrival is an event even when the ROB is full:
    // otherwise a window could straddle the cycle the stall reason
    // flips from line-miss to rob-full and bulk-charge the wrong bucket.
    if (!ftq.empty()) {
        const FtqGroup &head = ftq.front();
        if (!head.accessPending && head.ready > now)
            event(head.ready);
    }

    // The prediction unit wakes when its stall expires — relevant only
    // if it is not blocked on an unresolved branch (released by fetch
    // activity, itself an event above) and the FTQ has room.
    if (!predictBlockedOnBranch && ftqInsts < cfg.ftqEntries)
        event(predictStallUntil);

    return t;
}

Cycle
Cpu::inertWindow(Cycle bound) const
{
    // Eligibility checks ordered so the common busy-pipeline cases bail
    // out earliest. Fetch consumes instructions next cycle:
    if (!ftq.empty()) {
        const FtqGroup &head = ftq.front();
        if (!head.accessPending && head.ready <= now + 1 &&
            rob.size() < cfg.robEntries)
            return 0;
    }
    // The prediction unit runs next cycle.
    if (!predictBlockedOnBranch && ftqInsts < cfg.ftqEntries &&
        predictStallUntil <= now + 1)
        return 0;
    // A fresh FTQ group performs its L1I access next cycle. Groups stuck
    // behind a full MSHR file only retry no-ops until a fill frees an
    // entry — and that fill is already an event via nextFillReady().
    if (ftqPendingAccess_ > 0 && !l1iAccessBlocked_)
        return 0;
    // A cache with queued prefetches, or a prefetcher keeping per-cycle
    // state, acts on every tick.
    if (!l1i_->tickInert() || !l1d_->tickInert() || !l2_->tickInert() ||
        !llc_->tickInert())
        return 0;
    // Wrong-path fetch touches the hierarchy every cycle.
    if (wrongPathActive)
        return 0;

    Cycle next = nextEventCycle(bound);
    return next > now + 1 ? next - (now + 1) : 0;
}

void
Cpu::skipIdleCycles(Cycle watchdog)
{
    Cycle window = inertWindow(watchdog);
    if (window == 0)
        return;
    // Every skipped cycle is a zero-fetch cycle whose stall reason is
    // static across the window (the window ends at the first event that
    // could change it): bulk-charge it exactly as fetchStage would have
    // cycle by cycle. An idle predictor with an empty FTQ makes the
    // window 0, so a skipped empty-FTQ window is always redirect
    // recovery, never starvation.
    obs::StallReason reason = obs::StallReason::FtqEmptyMispredict;
    if (!ftq.empty()) {
        const FtqGroup &head = ftq.front();
        reason = head.accessPending || head.ready > now + 1
            ? obs::StallReason::LineMiss
            : obs::StallReason::BackendFull;
    }
    chargeStall(reason, now + 1, window);
    now += window;
    cycles_ += window;
}

Cpu::WindowStats
Cpu::runWindow(trace::InstructionSource &trace, uint64_t instructions,
               obs::IntervalSampler *sampler)
{
    EIP_ASSERT(instructions > 0, "window budget must be positive");

    const CacheStats &l1i_stats = l1i_->stats();
    const WindowStats start{retired,
                            cycles_,
                            l1i_stats.demandMisses,
                            l1i_stats.usefulPrefetches,
                            l1i_stats.latePrefetches,
                            l1i_stats.prefetchIssued};
    const uint64_t target = retired + instructions;
    // Generous watchdog: the core cannot be slower than 1 instruction per
    // 10k cycles unless the pipeline deadlocked (a bug).
    const Cycle watchdog = now + 10000 * instructions + 10'000'000;

    while (true) {
        ++now;
        ++cycles_;
        retireStage();
        fetchStage();
        // Guarded stage calls: both stages are no-ops (their first check
        // fails) in the common case, and l1iAccessStage would still walk
        // the whole FTQ to find no pending access.
        if (ftqPendingAccess_ > 0)
            l1iAccessStage();
        if (wrongPathActive)
            wrongPathStage();
        predictStage(trace);
        l1i_->tick(now);
        l1d_->tick(now);
        l2_->tick(now);
        llc_->tick(now);

        // Strides count calls, not cycles: a skipped window makes no
        // call, so audits land only on cycles that act.
        if (checks_ != nullptr)
            checks_->run(now);
        if (sampler != nullptr)
            sampler->tick(retired - measureStartRetired_, cycles_);

        if (retired >= target)
            break;
        EIP_ASSERT(now < watchdog, "pipeline deadlock (watchdog expired)");
        if (!perCycleReference_)
            skipIdleCycles(watchdog);
    }

    // End-of-window sweep: strided audits run once more regardless of
    // where their stride counter ended up.
    if (checks_ != nullptr)
        checks_->runAll(now);

    return WindowStats{retired - start.instructions,
                       cycles_ - start.cycles,
                       l1i_stats.demandMisses - start.l1iDemandMisses,
                       l1i_stats.usefulPrefetches - start.l1iUsefulPrefetches,
                       l1i_stats.latePrefetches - start.l1iLatePrefetches,
                       l1i_stats.prefetchIssued - start.l1iPrefetchIssued};
}

void
Cpu::beginMeasurement()
{
    measureStartRetired_ = retired;
    dramStart_ = dram_->accesses();
    cycles_ = 0;
    l1i_->stats() = CacheStats{};
    l1d_->stats() = CacheStats{};
    l2_->stats() = CacheStats{};
    llc_->stats() = CacheStats{};
    branches = 0;
    branchMispredicts = 0;
    btbMisses = 0;
    fetchStallLineMiss = 0;
    fetchStallFtqEmptyMispredict = 0;
    fetchStallFtqEmptyStarved = 0;
    fetchStallRobFull = 0;
    fetchIdleCycles = 0;
    // The tracer's roll-ups must cover exactly the same window as the
    // stats they reconcile against.
    if (tracer_ != nullptr)
        tracer_->measurementBoundary(now);
    // The blame ledger resets with the stats it partitions; the per-line
    // shadow state persists (warm-up-learned state legitimately explains
    // measured misses).
    if (why_ != nullptr)
        why_->measurementBoundary();
}

SimStats
Cpu::stats() const
{
    SimStats stats;
    stats.instructions = retired - measureStartRetired_;
    stats.cycles = cycles_;
    stats.branches = branches;
    stats.branchMispredicts = branchMispredicts;
    stats.btbMisses = btbMisses;
    stats.fetchStallLineMiss = fetchStallLineMiss;
    stats.fetchStallFtqEmptyMispredict = fetchStallFtqEmptyMispredict;
    stats.fetchStallFtqEmptyStarved = fetchStallFtqEmptyStarved;
    stats.fetchStallRobFull = fetchStallRobFull;
    stats.fetchIdleCycles = fetchIdleCycles;
    stats.l1i = l1i_->stats();
    stats.l1d = l1d_->stats();
    stats.l2 = l2_->stats();
    stats.llc = llc_->stats();
    stats.dramAccesses = dram_->accesses() - dramStart_;
    return stats;
}

SimStats
Cpu::run(trace::InstructionSource &trace, uint64_t instructions,
         uint64_t warmup_instructions, obs::IntervalSampler *sampler,
         obs::PhaseProfiler *profiler)
{
    EIP_ASSERT(instructions > 0, "instruction budget must be positive");

    // Phase attribution happens between windows only (entry, warm-up
    // end, exit) — the cycle loop never sees the profiler. A run without
    // warm-up measures from construction: there is nothing to discard.
    if (warmup_instructions > 0) {
        if (profiler != nullptr)
            profiler->transition("warmup");
        runWindow(trace, warmup_instructions);
        beginMeasurement();
    }
    if (profiler != nullptr)
        profiler->transition("measure");
    runWindow(trace, instructions, sampler);

    // Everything past the window — stats assembly here, registry dump
    // and analysis extraction in the caller — is fill/drain bookkeeping.
    if (profiler != nullptr)
        profiler->transition("fill_drain");
    return stats();
}

uint64_t
Cpu::statsFingerprint() const
{
    uint64_t h = 1469598103934665603ULL; // FNV-1a offset basis
    auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 1099511628211ULL;
    };
    mix(retired);
    mix(cycles_);
    mix(branches);
    mix(branchMispredicts);
    mix(btbMisses);
    mix(fetchStallLineMiss);
    mix(fetchStallFtqEmptyMispredict);
    mix(fetchStallFtqEmptyStarved);
    mix(fetchStallRobFull);
    mix(fetchIdleCycles);
    mix(dram_->accesses());
    for (const Cache *cache :
         {l1i_.get(), l1d_.get(), l2_.get(), llc_.get()}) {
        const CacheStats &s = cache->stats();
        mix(s.demandAccesses);
        mix(s.demandHits);
        mix(s.demandMisses);
        mix(s.mshrMerges);
        mix(s.prefetchRequested);
        mix(s.prefetchFiltered);
        mix(s.prefetchIssued);
        mix(s.usefulPrefetches);
        mix(s.latePrefetches);
        mix(s.wrongPrefetches);
        mix(s.fills);
        mix(s.evictions);
        mix(s.writeAccesses);
        mix(s.wrongPathAccesses);
        mix(s.wrongPathMisses);
        mix(s.missLatencySum);
    }
    return h;
}

void
Cpu::warmFunctional(trace::InstructionSource &trace, uint64_t instructions,
                    uint64_t cpiCycles, uint64_t cpiInstructions)
{
    if (instructions == 0)
        return;
    if (cpiCycles == 0 || cpiInstructions == 0) {
        cpiCycles = 1;
        cpiInstructions = 1;
    }

    // Warming-mode invariant (DESIGN.md §3.13): statistics are frozen
    // and no cycle is attributed to any stall bucket while warming —
    // audited by an entry/exit fingerprint whenever --check is on.
    const uint64_t entry_fingerprint =
        checks_ != nullptr ? statsFingerprint() : 0;

    l1i_->setWarming(true);
    l1d_->setWarming(true);
    l2_->setWarming(true);
    llc_->setWarming(true);

    // One monotonic clock: `now` advances at the caller's measured CPI
    // (Bresenham-style integer accumulation, so the schedule stays
    // deterministic) so MSHR drains and cycle-stamped prefetcher
    // learning (timeliness distances) stay coherent with detailed
    // execution — but these cycles are charged nowhere.
    Addr last_line = ~Addr{0};
    uint64_t cpi_acc = 0;
    for (uint64_t i = 0; i < instructions; ++i) {
        const trace::Instruction inst = trace.next();
        if (inst.isBranch())
            predictBranchImpl<true>(inst);
        Addr line = l1iLine(inst.pc);
        if (line != last_line) {
            // Consecutive same-line fetches collapse to one access, the
            // same dedup the FTQ's line groups perform for the timed
            // front end.
            l1i_->warmAccess(line, inst.pc, now);
            last_line = line;
        }
        if (inst.isLoad || inst.isStore)
            l1d_->warmAccess(lineAddr(inst.memAddr), inst.pc, now);
        cpi_acc += cpiCycles;
        now += cpi_acc / cpiInstructions;
        cpi_acc %= cpiInstructions;
    }

    l1i_->setWarming(false);
    l1d_->setWarming(false);
    l2_->setWarming(false);
    llc_->setWarming(false);

    if (checks_ != nullptr) {
        EIP_ASSERT(statsFingerprint() == entry_fingerprint,
                   "functional warming mutated frozen statistics");
    }
}

void
Cpu::registerCounters(obs::CounterRegistry &reg)
{
    // Measured deltas for the counters the boundary resets by recording
    // a start value (rather than zeroing the counter itself).
    reg.counter("cpu.instructions",
                [this]() { return retired - measureStartRetired_; });
    reg.counter("cpu.cycles", &cycles_);
    reg.counter("cpu.branches", &branches);
    reg.counter("cpu.branch_mispredicts", &branchMispredicts);
    reg.counter("cpu.btb_misses", &btbMisses);
    reg.counter("cpu.fetch_stall_line_miss", &fetchStallLineMiss);
    reg.counter("cpu.fetch_stall_ftq_empty", [this]() {
        return fetchStallFtqEmptyMispredict + fetchStallFtqEmptyStarved;
    });
    reg.counter("cpu.fetch_stall_ftq_empty_mispredict",
                &fetchStallFtqEmptyMispredict);
    reg.counter("cpu.fetch_stall_ftq_empty_starved",
                &fetchStallFtqEmptyStarved);
    reg.counter("cpu.fetch_stall_rob_full", &fetchStallRobFull);
    reg.counter("cpu.fetch_idle_cycles", &fetchIdleCycles);
    reg.counter("dram.accesses",
                [this]() { return dram_->accesses() - dramStart_; });

    reg.gauge("cpu.ipc", [this]() {
        return ipcOf(retired - measureStartRetired_, cycles_);
    });
    reg.gauge("l1i.mpki", [this]() {
        return mpkiOf(l1i_->stats().demandMisses,
                      retired - measureStartRetired_);
    });

    registerCacheStats(reg, "l1i", l1i_->stats());
    registerCacheStats(reg, "l1d", l1d_->stats());
    registerCacheStats(reg, "l2", l2_->stats());
    registerCacheStats(reg, "llc", llc_->stats());

    if (l1iPrefetcher != nullptr)
        l1iPrefetcher->registerStats(reg);

    // Appended last so artifacts without --why keep their exact historic
    // column order and bytes.
    if (why_ != nullptr)
        why_->registerCounters(reg);
}

} // namespace eip::sim
