/**
 * @file
 * Trace executor: walks a synthetic Program's CFG and produces the dynamic
 * instruction stream consumed by the simulated core. The stream is infinite
 * (when main returns, execution restarts at its entry — a driver loop), so
 * the caller decides the instruction budget.
 */

#ifndef EIP_TRACE_EXECUTOR_HH
#define EIP_TRACE_EXECUTOR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/instruction.hh"
#include "trace/program.hh"
#include "util/flat_map.hh"
#include "util/rng.hh"

namespace eip::trace {

/** Runtime knobs of the executor. */
struct ExecutorConfig
{
    uint64_t seed = 7;
    uint32_t maxCallDepth = 24;   ///< calls beyond this depth are elided
    uint64_t stackBase = 0x7fff'ffff'0000ULL;
    uint64_t frameBytes = 256;
    uint64_t globalBase = 0x10'0000'0000ULL;
    uint64_t dataFootprintBytes = 640ULL << 10;
};

/**
 * Deterministic CFG walker. Identical (program, config) pairs yield
 * bit-identical instruction streams.
 *
 * skip() advances with a body-free stepper: it moves control flow, the
 * RNG draws of Global loads and stores, and the stream cursors without
 * filling an Instruction or making a virtual call per instruction. The
 * stream after skip(n) is bit-identical to the one after n calls of
 * next().
 */
class Executor : public InstructionSource
{
  public:
    Executor(const Program &program, const ExecutorConfig &cfg);

    /** Produce the next dynamic instruction. Never fails. */
    const Instruction &next() override;

    /** Advance past @p n instructions; see the class comment. */
    void skip(uint64_t n) override;

    /** Dynamic instructions emitted (or skipped) so far. */
    uint64_t emitted() const { return emittedCount; }

    /** Current call depth (for tests). */
    size_t callDepth() const { return stack.size(); }

  private:
    struct Frame
    {
        uint32_t func;
        uint32_t resumeBlock; ///< caller block to resume at after return
    };

    void advanceToBlock(uint32_t func, uint32_t block);
    void emitBody(const StaticInst &inst, uint64_t pc);
    /** Execute the current block's terminator; only next() (Emit)
     *  fills the output record. */
    template <bool Emit> void terminator();
    uint64_t dataAddress(const StaticInst &inst, uint64_t pc);
    /** Dense index of the current block across all functions. */
    size_t globalBlock() const { return blockBase[curFunc] + curBlock; }

    const Program &prog;
    ExecutorConfig config;
    Rng rng;

    uint32_t curFunc = 0;
    uint32_t curBlock = 0;
    /** Position inside the current block's body; equal to body size when
     *  the terminator is next. */
    size_t bodyPos = 0;
    uint64_t bodyPc = 0;

    std::vector<Frame> stack;
    /** Index of each function's first block in the dense per-block
     *  arrays below. */
    std::vector<uint32_t> blockBase;
    /** Remaining trips of each loop back-edge, by global block;
     *  kNoTrips while the loop is not active. */
    std::vector<uint32_t> loopTrips;
    static constexpr uint32_t kNoTrips = ~uint32_t{0};
    /** Cyclic position of each wide dispatch site, by global block. */
    std::vector<uint32_t> dispatchPos;

    Instruction out;
    uint64_t emittedCount = 0;
    /** Per-site cursors of streaming loads/stores, keyed by pc (sites
     *  sharing a pc share a cursor). */
    util::FlatMap<uint64_t> streamCursor;
};

} // namespace eip::trace

#endif // EIP_TRACE_EXECUTOR_HH
