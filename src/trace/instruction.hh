/**
 * @file
 * Dynamic instruction record — the unit flowing from a workload trace into
 * the simulated core. Mirrors the information a ChampSim trace provides.
 */

#ifndef EIP_TRACE_INSTRUCTION_HH
#define EIP_TRACE_INSTRUCTION_HH

#include <cstdint>

namespace eip::trace {

/** Branch classification, following the ChampSim taxonomy. */
enum class BranchType : uint8_t
{
    NotBranch,
    Conditional,   ///< direct conditional branch
    DirectJump,    ///< unconditional direct jump
    IndirectJump,  ///< unconditional indirect jump
    DirectCall,    ///< direct call
    IndirectCall,  ///< indirect call
    Return,        ///< return
};

/** True for call-type branches (push a return address). */
constexpr bool
isCall(BranchType t)
{
    return t == BranchType::DirectCall || t == BranchType::IndirectCall;
}

/**
 * Abstract producer of a dynamic instruction stream. Implemented by the
 * synthetic Executor and by the trace-file Replayer; the CPU consumes any
 * InstructionSource.
 */
class InstructionSource;

/** One dynamic instruction instance. */
struct Instruction
{
    uint64_t pc = 0;        ///< virtual address of the instruction
    uint8_t size = 4;       ///< instruction length in bytes
    BranchType branch = BranchType::NotBranch;
    bool taken = false;     ///< actual outcome (from the trace)
    uint64_t target = 0;    ///< actual taken target (0 if not taken)
    bool isLoad = false;
    bool isStore = false;
    bool isFp = false;      ///< floating-point operation (longer latency)
    uint64_t memAddr = 0;   ///< data address for loads/stores

    bool isBranch() const { return branch != BranchType::NotBranch; }

    /** Address of the next sequential instruction. */
    uint64_t nextPc() const { return pc + size; }
};

/** See above. */
class InstructionSource
{
  public:
    virtual ~InstructionSource() = default;

    /** Produce the next dynamic instruction. Must never fail; sources of
     *  finite traces loop or repeat. */
    virtual const Instruction &next() = 0;

    /**
     * Advance the stream past @p n instructions without observing them.
     * The stream after the skip is bit-identical to the one after n
     * next() calls. This default calls next(); replayers reposition in
     * O(1), and the synthetic Executor steps its state without building
     * records. Used by the sampling controller's fast-forward phase.
     */
    virtual void
    skip(uint64_t n)
    {
        for (uint64_t i = 0; i < n; ++i)
            next();
    }
};

} // namespace eip::trace

#endif // EIP_TRACE_INSTRUCTION_HH
