#include "trace/executor.hh"

#include <algorithm>

#include "util/panic.hh"

namespace eip::trace {

Executor::Executor(const Program &program, const ExecutorConfig &cfg)
    : prog(program), config(cfg), rng(cfg.seed)
{
    EIP_ASSERT(!prog.functions.empty(), "cannot execute an empty program");
    size_t blocks = 0;
    blockBase.reserve(prog.functions.size());
    for (const Function &fn : prog.functions) {
        blockBase.push_back(static_cast<uint32_t>(blocks));
        blocks += fn.blocks.size();
    }
    loopTrips.assign(blocks, kNoTrips);
    dispatchPos.assign(blocks, 0);
    advanceToBlock(0, 0);
}

void
Executor::advanceToBlock(uint32_t func, uint32_t block)
{
    curFunc = func;
    curBlock = block;
    bodyPos = 0;
    bodyPc = prog.functions[func].blocks[block].startPc;
}

uint64_t
Executor::dataAddress(const StaticInst &inst, uint64_t pc)
{
    switch (inst.memPattern) {
      case MemPattern::Stack: {
        // A fixed frame slot (a local variable of this function).
        uint64_t frame_top =
            config.stackBase - stack.size() * config.frameBytes;
        return frame_top - inst.memParam;
      }
      case MemPattern::Stream: {
        // Constant-stride stream, private to this instruction site.
        uint64_t &cursor = streamCursor[pc];
        if (cursor == 0)
            cursor = config.globalBase + (pc % config.dataFootprintBytes);
        cursor += inst.memParam;
        if (cursor > config.globalBase + 2 * config.dataFootprintBytes)
            cursor = config.globalBase + (pc % config.dataFootprintBytes);
        return cursor;
      }
      case MemPattern::Global:
      default:
        // Hot-skewed reuse over the shared data footprint.
        return config.globalBase +
               (rng.skewedBelow(config.dataFootprintBytes) & ~uint64_t{7});
    }
}

void
Executor::emitBody(const StaticInst &inst, uint64_t pc)
{
    out = Instruction{};
    out.pc = pc;
    out.size = inst.size;
    switch (inst.kind) {
      case InstKind::Load:
        out.isLoad = true;
        out.memAddr = dataAddress(inst, pc);
        break;
      case InstKind::Store:
        out.isStore = true;
        out.memAddr = dataAddress(inst, pc);
        break;
      case InstKind::FpAlu:
        out.isFp = true;
        break;
      case InstKind::Alu:
      case InstKind::Nop:
        break;
    }
}

template <bool Emit>
void
Executor::terminator()
{
    const Function &fn = prog.functions[curFunc];
    const Block &blk = fn.blocks[curBlock];

    // The stepper's writes land in a dead local the compiler drops.
    Instruction unused;
    Instruction &rec = Emit ? out : unused;
    rec = Instruction{};
    rec.pc = bodyPc;
    rec.size = blk.termSize;

    switch (blk.term) {
      case TerminatorKind::FallThrough: {
        // Plain ALU op; control continues into the next block.
        advanceToBlock(curFunc, blk.fallBlock);
        return;
      }
      case TerminatorKind::CondBranch: {
        rec.branch = BranchType::Conditional;
        bool taken;
        if (blk.loopTripCount > 0) {
            // Loop back-edge with a drawn trip count per loop entry.
            uint32_t &trips = loopTrips[globalBlock()];
            if (trips == kNoTrips) {
                trips = 1 + static_cast<uint32_t>(
                    rng.below(2 * blk.loopTripCount));
            }
            if (trips > 0) {
                --trips;
                taken = true;
            } else {
                trips = kNoTrips;
                taken = false;
            }
        } else {
            taken = rng.chance(blk.takenProb);
        }
        rec.taken = taken;
        if (taken) {
            rec.target = fn.blocks[blk.takenBlock].startPc;
            advanceToBlock(curFunc, blk.takenBlock);
        } else {
            advanceToBlock(curFunc, blk.fallBlock);
        }
        return;
      }
      case TerminatorKind::Jump: {
        rec.branch = BranchType::DirectJump;
        rec.taken = true;
        rec.target = fn.blocks[blk.takenBlock].startPc;
        advanceToBlock(curFunc, blk.takenBlock);
        return;
      }
      case TerminatorKind::IndirectJump: {
        rec.branch = BranchType::IndirectJump;
        rec.taken = true;
        uint32_t idx = static_cast<uint32_t>(
            rng.skewedBelow(blk.indirectTargets.size()));
        uint32_t target_block = blk.indirectTargets[idx];
        rec.target = fn.blocks[target_block].startPc;
        advanceToBlock(curFunc, target_block);
        return;
      }
      case TerminatorKind::Call:
      case TerminatorKind::IndirectCall: {
        uint32_t callee;
        if (blk.term == TerminatorKind::Call) {
            callee = blk.callees.front();
        } else if (blk.callees.size() >= 8) {
            // Wide dispatch site (event loop). Real servers show strong
            // request-type locality: handlers are processed in mostly
            // cyclic runs with occasional jumps, so long control-flow
            // sequences recur — the property correlation prefetchers rely
            // on. Model: advance through the candidate list with high
            // probability, sometimes repeat, rarely jump at random.
            uint32_t &pos = dispatchPos[globalBlock()];
            double u = rng.uniform();
            if (u < 0.80)
                pos = (pos + 1) % blk.callees.size();
            else if (u < 0.92)
                ; // repeat the same handler (a burst of one request type)
            else
                pos = static_cast<uint32_t>(rng.below(blk.callees.size()));
            callee = blk.callees[pos];
        } else {
            // Small virtual-dispatch site: skewed towards a hot target.
            uint32_t idx = static_cast<uint32_t>(
                rng.skewedBelow(blk.callees.size()));
            callee = blk.callees[idx];
        }
        bool elide = stack.size() >= config.maxCallDepth ||
                     callee == curFunc;
        if (elide) {
            // Depth guard: execute as a plain instruction.
            advanceToBlock(curFunc, blk.fallBlock);
            return;
        }
        rec.branch = blk.term == TerminatorKind::Call
            ? BranchType::DirectCall : BranchType::IndirectCall;
        rec.taken = true;
        rec.target = prog.functions[callee].entryPc;
        stack.push_back(Frame{curFunc, blk.fallBlock});
        advanceToBlock(callee, 0);
        return;
      }
      case TerminatorKind::Return: {
        rec.branch = BranchType::Return;
        rec.taken = true;
        if (stack.empty()) {
            // Driver loop: restart main.
            rec.target = prog.functions[0].entryPc;
            advanceToBlock(0, 0);
        } else {
            Frame frame = stack.back();
            stack.pop_back();
            rec.target =
                prog.functions[frame.func].blocks[frame.resumeBlock].startPc;
            advanceToBlock(frame.func, frame.resumeBlock);
        }
        return;
      }
    }
    EIP_PANIC("unhandled terminator kind");
}

const Instruction &
Executor::next()
{
    const Block &blk = prog.functions[curFunc].blocks[curBlock];
    if (bodyPos < blk.body.size()) {
        const StaticInst &inst = blk.body[bodyPos];
        emitBody(inst, bodyPc);
        bodyPc += inst.size;
        ++bodyPos;
    } else {
        terminator<true>();
    }
    ++emittedCount;
    return out;
}

void
Executor::skip(uint64_t n)
{
    const uint64_t target = emittedCount + n;
    while (emittedCount < target) {
        const Block &blk = prog.functions[curFunc].blocks[curBlock];
        const size_t size = blk.body.size();
        if (bodyPos == size) {
            terminator<false>();
            ++emittedCount;
            continue;
        }
        // Only Global (an RNG draw) and Stream (a cursor) loads and
        // stores change state inside a body.
        const size_t end = static_cast<size_t>(std::min<uint64_t>(
            size, bodyPos + (target - emittedCount)));
        emittedCount += end - bodyPos;
        for (; bodyPos < end; ++bodyPos) {
            const StaticInst &inst = blk.body[bodyPos];
            if ((inst.kind == InstKind::Load ||
                 inst.kind == InstKind::Store) &&
                inst.memPattern != MemPattern::Stack)
                dataAddress(inst, bodyPc);
            bodyPc += inst.size;
        }
    }
}

} // namespace eip::trace
