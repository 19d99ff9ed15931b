#include "machine_keys.hh"

#include <stdexcept>

#include "util/parse.hh"

namespace sst {
namespace {

/** Table row with field accessors generated from the member expression. */
#define SST_MACHINE_KEY(key_name, key_kind, field)                            \
    MachineKey                                                                \
    {                                                                         \
        key_name, MachineKey::Kind::key_kind,                                 \
            [](const SimParams &p) {                                          \
                return static_cast<std::uint64_t>(p.field);                   \
            },                                                                \
            [](SimParams &p, std::uint64_t v) {                               \
                p.field = static_cast<decltype(p.field)>(v);                  \
            }                                                                 \
    }

std::vector<MachineKey>
buildTable()
{
    return {
        // ---- core timing model ------------------------------------------
        SST_MACHINE_KEY("dispatch-width", kU64, dispatchWidth),
        SST_MACHINE_KEY("llc-hit-cycles", kU64, llcHitCycles),
        SST_MACHINE_KEY("c2c-transfer-cycles", kU64, c2cTransferCycles),
        SST_MACHINE_KEY("rob-overlap-cycles", kU64, robOverlapCycles),
        SST_MACHINE_KEY("coherency-miss-cycles", kU64, coherencyMissCycles),
        // ---- spin / yield policy ----------------------------------------
        SST_MACHINE_KEY("spin-check-cycles", kU64, spinCheckCycles),
        SST_MACHINE_KEY("spin-loop-instrs", kU64, spinLoopInstrs),
        SST_MACHINE_KEY("lock-spin-threshold", kU64, lockSpinThreshold),
        SST_MACHINE_KEY("barrier-spin-threshold", kU64,
                        barrierSpinThreshold),
        // ---- OS scheduler mechanism -------------------------------------
        SST_MACHINE_KEY("ctx-switch-cycles", kU64, ctxSwitchCycles),
        SST_MACHINE_KEY("wake-latency-cycles", kU64, wakeLatencyCycles),
        SST_MACHINE_KEY("sched-per-core-overhead", kU64,
                        schedPerCoreOverhead),
        SST_MACHINE_KEY("time-slice-cycles", kU64, timeSliceCycles),
        SST_MACHINE_KEY("migration-flushes-l1", kBool, migrationFlushesL1),
        // ---- cache hierarchy --------------------------------------------
        SST_MACHINE_KEY("l1-bytes", kSize, cache.l1Bytes),
        SST_MACHINE_KEY("l1-ways", kU64, cache.l1Ways),
        SST_MACHINE_KEY("llc-bytes", kSize, cache.llcBytes),
        SST_MACHINE_KEY("llc-ways", kU64, cache.llcWays),
        SST_MACHINE_KEY("atd-sampling-factor", kU64,
                        cache.atdSamplingFactor),
        SST_MACHINE_KEY("oracle-atds", kBool, cache.oracleAtds),
        // ---- DRAM --------------------------------------------------------
        SST_MACHINE_KEY("dram-banks", kU64, dram.nbanks),
        SST_MACHINE_KEY("dram-bus-cycles", kU64, dram.busCycles),
        SST_MACHINE_KEY("dram-data-cycles", kU64, dram.dataCycles),
        SST_MACHINE_KEY("dram-row-hit-cycles", kU64, dram.rowHitCycles),
        SST_MACHINE_KEY("dram-row-empty-cycles", kU64, dram.rowEmptyCycles),
        SST_MACHINE_KEY("dram-row-conflict-cycles", kU64,
                        dram.rowConflictCycles),
        SST_MACHINE_KEY("dram-row-bytes", kSize, dram.rowBytes),
        // ---- accounting hardware ----------------------------------------
        SST_MACHINE_KEY("tian-table-entries", kU64,
                        accounting.tian.tableEntries),
        SST_MACHINE_KEY("tian-mark-threshold", kU64,
                        accounting.tian.markThreshold),
        SST_MACHINE_KEY("li-table-entries", kU64,
                        accounting.li.tableEntries),
        MachineKey{"stack-detector", MachineKey::Kind::kDetector,
                   [](const SimParams &p) {
                       return static_cast<std::uint64_t>(
                           p.accounting.stackDetector);
                   },
                   [](SimParams &p, std::uint64_t v) {
                       p.accounting.stackDetector =
                           static_cast<AccountingParams::Detector>(v);
                   }},
    };
}

#undef SST_MACHINE_KEY

} // namespace

const std::vector<MachineKey> &
machineKeys()
{
    static const std::vector<MachineKey> table = buildTable();
    return table;
}

const MachineKey *
findMachineKey(const std::string &name)
{
    for (const MachineKey &k : machineKeys())
        if (name == k.name)
            return &k;
    return nullptr;
}

std::string
machineKeyNamesJoined()
{
    std::string out;
    for (const MachineKey &k : machineKeys()) {
        if (!out.empty())
            out += ", ";
        out += "machine.";
        out += k.name;
    }
    return out;
}


std::string
machineValueText(const MachineKey &key, const SimParams &params)
{
    const std::uint64_t v = key.get(params);
    switch (key.kind) {
    case MachineKey::Kind::kU64:
        return std::to_string(v);
    case MachineKey::Kind::kSize:
        return sizeText(v);
    case MachineKey::Kind::kBool:
        return v ? "true" : "false";
    case MachineKey::Kind::kDetector:
        return v == 0 ? "tian" : "li";
    }
    return std::to_string(v); // unreachable
}



void
setMachineValue(SimParams &params, const MachineKey &key,
                const std::string &text)
{
    std::uint64_t v = 0;
    switch (key.kind) {
    case MachineKey::Kind::kU64:
        v = parseU64Text(key.name, text);
        break;
    case MachineKey::Kind::kSize:
        v = parseSize(text);
        break;
    case MachineKey::Kind::kBool:
        v = parseBoolText(key.name, text) ? 1 : 0;
        break;
    case MachineKey::Kind::kDetector:
        if (text == "tian")
            v = 0;
        else if (text == "li")
            v = 1;
        else
            throw std::invalid_argument("bad spin detector '" + text +
                                        "' (expected tian or li)");
        break;
    }
    key.set(params, v);
}

void
encodeMachineParams(std::string &out, const SimParams &params)
{
    for (const MachineKey &k : machineKeys()) {
        out += "machine.";
        out += k.name;
        out += " = ";
        out += machineValueText(k, params);
        out += '\n';
    }
}

} // namespace sst
