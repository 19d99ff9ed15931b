#include "machine_keys.hh"

#include <stdexcept>
#include <utility>

#include "util/bits.hh"
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
machineValueText(const MachineKey &key, std::uint64_t value)
{
    switch (key.kind) {
    case MachineKey::Kind::kU64:
        return std::to_string(value);
    case MachineKey::Kind::kSize:
        return sizeText(value);
    case MachineKey::Kind::kBool:
        return value ? "true" : "false";
    case MachineKey::Kind::kDetector:
        return value == 0 ? "tian" : "li";
    }
    return std::to_string(value); // unreachable
}

void
setMachineValue(SimParams &params, const MachineKey &key,
                const std::string &text)
{
    const std::string bad =
        std::string("bad value for ") + key.name + ": '" + text + "'";
    std::uint64_t v = 0;
    switch (key.kind) {
    case MachineKey::Kind::kU64:
        v = parseU64Text(key.name, text);
        break;
    case MachineKey::Kind::kSize:
        try {
            v = parseSize(text);
        } catch (const std::invalid_argument &) {
            throw std::invalid_argument(bad + " (expected a size: 2M)");
        }
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
            throw std::invalid_argument(bad + " (expected tian or li)");
        break;
    }
    key.set(params, v);
}

std::vector<std::uint64_t>
parseMachineValues(const MachineKey &key, const std::string &text)
{
    std::vector<std::uint64_t> values;
    for (const std::string &item : splitCommas(text)) {
        SimParams p;
        setMachineValue(p, key, item);
        values.push_back(key.get(p));
    }
    return values;
}

namespace {

[[noreturn]] void
refuse(const std::string &key, const std::string &why)
{
    throw std::invalid_argument("machine." + key + " " + why);
}

/** Sets of a cache of @p bytes and @p ways ("l1" or "llc" keys). */
std::uint64_t
checkedSets(const std::string &cache, std::uint64_t bytes, int ways)
{
    if (ways < 1 || ways > SetAssocArray::kMaxWays)
        refuse(cache + "-ways", "= " + std::to_string(ways) +
                                    ": must be 1.." +
                                    std::to_string(SetAssocArray::kMaxWays));
    const std::uint64_t w = static_cast<std::uint64_t>(ways);
    const std::uint64_t sets = bytes / kLineBytes / w;
    if (!isPow2(sets))
        refuse(cache + "-bytes",
               "= " + sizeText(bytes) + " with machine." + cache +
                   "-ways = " + std::to_string(ways) + " gives " +
                   std::to_string(sets) +
                   " sets: the set count must be a power of two");
    if (sets >= (kNoSlot >> log2i(w)))
        refuse(cache + "-bytes", "= " + sizeText(bytes) + ": too large");
    return sets;
}

template <typename T>
void
requirePositive(const char *key, T value)
{
    if (value < 1)
        refuse(key, "= " + std::to_string(value) + ": must be >= 1");
}

} // namespace

void
validateMachine(const SimParams &params)
{
    const CacheParams &cache = params.cache;
    checkedSets("l1", cache.l1Bytes, cache.l1Ways);
    const std::uint64_t llc_sets =
        checkedSets("llc", cache.llcBytes, cache.llcWays);
    requirePositive("atd-sampling-factor", cache.atdSamplingFactor);
    if (llc_sets % static_cast<std::uint64_t>(cache.atdSamplingFactor) != 0)
        refuse("atd-sampling-factor",
               "= " + std::to_string(cache.atdSamplingFactor) +
                   ": must divide the LLC set count " +
                   std::to_string(llc_sets));

    const DramParams &dram = params.dram;
    requirePositive("dram-banks", dram.nbanks);
    // The bus timeline holds every cycle from the issue time to the end
    // of the latest reservation, so a latency or transfer length sets
    // its host memory; zero-cycle transfers are fine.
    const std::pair<const char *, Cycles> dram_cycles[] = {
        {"dram-bus-cycles", dram.busCycles},
        {"dram-data-cycles", dram.dataCycles},
        {"dram-row-hit-cycles", dram.rowHitCycles},
        {"dram-row-empty-cycles", dram.rowEmptyCycles},
        {"dram-row-conflict-cycles", dram.rowConflictCycles}};
    for (const auto &[key, cycles] : dram_cycles) {
        if (cycles > kMaxDramCycles)
            refuse(key, "= " + std::to_string(cycles) + ": must be <= " +
                            std::to_string(kMaxDramCycles));
    }
    if (dram.rowBytes < kLineBytes)
        refuse("dram-row-bytes", "= " + sizeText(dram.rowBytes) +
                                     ": must hold a line (64 bytes)");

    requirePositive("dispatch-width", params.dispatchWidth);
    requirePositive("tian-table-entries",
                    params.accounting.tian.tableEntries);
    requirePositive("li-table-entries", params.accounting.li.tableEntries);
    // A zero poll period or time slice never advances a spinning or
    // preempted thread: the run would not end.
    requirePositive("spin-check-cycles", params.spinCheckCycles);
    requirePositive("time-slice-cycles", params.timeSliceCycles);
}

void
encodeMachineParams(std::string &out, const SimParams &params)
{
    for (const MachineKey &k : machineKeys()) {
        out += "machine.";
        out += k.name;
        out += " = ";
        out += machineValueText(k, k.get(params));
        out += '\n';
    }
}

} // namespace sst
