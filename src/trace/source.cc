#include "trace/source.hh"

#include "trace/champsim.hh"
#include "trace/executor.hh"
#include "trace/trace_file.hh"
#include "util/panic.hh"

namespace eip::trace {

namespace {

class SyntheticSource : public TraceSource
{
  public:
    SyntheticSource(const Program &program, const ExecutorConfig &config)
        : program(program), config(config)
    {
    }

    std::unique_ptr<InstructionSource>
    open() override
    {
        return std::make_unique<Executor>(program, config);
    }

  private:
    const Program &program;
    ExecutorConfig config;
};

class ReplaySource : public TraceSource
{
  public:
    explicit ReplaySource(const std::string &path) : path(path) {}

    std::unique_ptr<InstructionSource>
    open() override
    {
        return std::make_unique<TraceReplayer>(path);
    }

  private:
    std::string path;
};

class ChampSimSource : public TraceSource
{
  public:
    explicit ChampSimSource(const std::string &path) : path(path) {}

    std::unique_ptr<InstructionSource>
    open() override
    {
        return std::make_unique<ChampSimReplayer>(path);
    }

  private:
    std::string path;
};

} // namespace

std::unique_ptr<TraceSource>
makeTraceSource(const Workload &workload, const Program *program)
{
    switch (workload.kind) {
    case WorkloadKind::Synthetic:
        EIP_ASSERT(program != nullptr,
                   "synthetic workload needs a built Program");
        return std::make_unique<SyntheticSource>(*program, workload.exec);
    case WorkloadKind::EipTrace:
        return std::make_unique<ReplaySource>(workload.tracePath);
    case WorkloadKind::ChampSim:
        return std::make_unique<ChampSimSource>(workload.tracePath);
    }
    EIP_PANIC("unknown WorkloadKind");
}

} // namespace eip::trace
