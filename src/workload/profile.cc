#include "profile.hh"

#include "util/canonical.hh"
#include "util/logging.hh"

namespace sst {

std::string
BenchmarkProfile::label() const
{
    return input.empty() ? name : name + "_" + input;
}

namespace {

constexpr std::uint64_t KB = 1024;
constexpr std::uint64_t MB = 1024 * 1024;

/**
 * Builds the 28-row suite. Parameters are tuned so that the measured
 * speedups and dominant stack components land near the paper's Figure 6;
 * the mapping from workload knob to scaling delimiter:
 *
 *  - parallelismCap: limited task parallelism -> inactive threads yield
 *    at phase barriers (the paper's dominant "yielding" delimiter).
 *  - numLocks/lockFreq/cs*: critical-section contention; short waits
 *    surface as spinning, long waits as yielding.
 *  - privateBytes/privateHot*: footprint (LLC pressure) vs memory
 *    intensity (DRAM bus pressure) of the private working set.
 *  - sharedFrac/sharedHot*: cross-thread reuse -> positive interference;
 *    cold shared references -> DRAM traffic.
 *  - imbalanceSkew + barrierPhases: barrier waiting.
 *  - parOverheadFrac: extra instructions in parallel mode (unaccounted,
 *    reproducing the estimation-error correlation of Section 6).
 *
 * Bandwidth sanity: the shared bus serves one access per ~6 cycles, so
 * the suite keeps aggregate DRAM demand below ~0.8 of that except for
 * deliberately memory-saturated workloads (radix, srad, canneal).
 */
std::vector<BenchmarkProfile>
buildSuite()
{
    std::vector<BenchmarkProfile> v;

    auto add = [&v](BenchmarkProfile p) {
        p.seed = 0x5157ULL * (v.size() + 1);
        v.push_back(std::move(p));
    };

    // ---- good scaling ---------------------------------------------------
    {
        BenchmarkProfile p;
        p.name = "blackscholes"; p.suite = "parsec"; p.input = "medium";
        p.paperSpeedup16 = 15.94; p.paperClass = "good";
        p.totalIters = 96000; p.computePerIter = 280; p.memPerIter = 8;
        p.privateBytes = 16 * KB; p.streamFrac = 0.5;
        p.sharedBytes = 32 * KB; p.sharedFrac = 0.01; p.sharedHotFrac = 0.5;
        p.barrierPhases = 1; p.imbalanceSkew = 0.01;
        p.parOverheadFrac = 0.005;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "blackscholes"; p.suite = "parsec"; p.input = "small";
        p.paperSpeedup16 = 15.71; p.paperClass = "good";
        p.totalIters = 48000; p.computePerIter = 280; p.memPerIter = 8;
        p.privateBytes = 16 * KB; p.streamFrac = 0.5;
        p.sharedBytes = 32 * KB; p.sharedFrac = 0.01; p.sharedHotFrac = 0.5;
        p.barrierPhases = 1; p.imbalanceSkew = 0.02;
        p.parOverheadFrac = 0.01;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "radix"; p.suite = "splash2";
        p.paperSpeedup16 = 11.60; p.paperClass = "good";
        p.totalIters = 32000; p.computePerIter = 160; p.memPerIter = 16;
        p.privateBytes = 8 * MB;
        p.privateHotBytes = 32 * KB; p.privateHotFrac = 0.985;
        p.streamFrac = 0.9;
        p.sharedBytes = 128 * KB; p.sharedFrac = 0.02;
        p.sharedHotFrac = 0.5;
        p.barrierPhases = 8; p.imbalanceSkew = 0.05;
        p.parOverheadFrac = 0.01;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "swaptions"; p.suite = "parsec"; p.input = "medium";
        p.paperSpeedup16 = 12.99; p.paperClass = "good";
        p.totalIters = 48000; p.computePerIter = 300; p.memPerIter = 10;
        p.privateBytes = 24 * KB; p.streamFrac = 0.5;
        p.sharedBytes = 32 * KB; p.sharedFrac = 0.01; p.sharedHotFrac = 0.5;
        p.parallelismCap = 14.62; p.capJitter = 0.08;
        p.barrierPhases = 26; p.imbalanceSkew = 0.06;
        p.parOverheadFrac = 0.02;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "heartwall"; p.suite = "rodinia";
        p.paperSpeedup16 = 10.39; p.paperClass = "good";
        p.totalIters = 40000; p.computePerIter = 240; p.memPerIter = 12;
        p.privateBytes = 32 * KB; p.streamFrac = 0.6;
        p.sharedBytes = 64 * KB; p.sharedFrac = 0.015;
        p.sharedHotFrac = 0.4;
        p.parallelismCap = 12.56; p.capJitter = 0.12;
        p.barrierPhases = 24; p.imbalanceSkew = 0.08;
        p.parOverheadFrac = 0.02;
        add(p);
    }

    // ---- moderate scaling -------------------------------------------------
    {
        BenchmarkProfile p;
        p.name = "srad"; p.suite = "rodinia";
        p.paperSpeedup16 = 5.20; p.paperClass = "moderate";
        p.totalIters = 24000; p.computePerIter = 160; p.memPerIter = 24;
        p.privateBytes = 8 * MB;
        p.privateHotBytes = 24 * KB; p.privateHotFrac = 0.966;
        p.streamFrac = 0.85;
        p.sharedBytes = 1 * MB; p.sharedFrac = 0.04; p.sharedHotFrac = 0.7;
        p.barrierPhases = 32; p.imbalanceSkew = 0.15;
        p.parOverheadFrac = 0.02;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "cholesky"; p.suite = "splash2";
        p.paperSpeedup16 = 5.02; p.paperClass = "moderate";
        p.totalIters = 24000; p.computePerIter = 240; p.memPerIter = 12;
        p.privateBytes = 88 * KB; p.streamFrac = 0.5;
        p.sharedBytes = 3 * MB; p.sharedFrac = 0.10;
        p.sharedHotFrac = 0.45; p.sharedHotBytes = 64 * KB;
        p.numLocks = 1; p.lockFreq = 0.82;
        p.csCompute = 80; p.csMem = 1;
        p.barrierPhases = 12; p.imbalanceSkew = 0.15;
        p.sharedWindowPhases = 6;
        p.parOverheadFrac = 0.03;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "lud"; p.suite = "rodinia";
        p.paperSpeedup16 = 5.77; p.paperClass = "moderate";
        p.totalIters = 32000; p.computePerIter = 220; p.memPerIter = 14;
        p.privateBytes = 32 * KB; p.streamFrac = 0.6;
        p.sharedBytes = 128 * KB; p.sharedFrac = 0.02;
        p.sharedHotFrac = 0.5;
        p.parallelismCap = 7.68; p.capJitter = 0.2;
        p.barrierPhases = 40; p.imbalanceSkew = 0.15;
        p.parOverheadFrac = 0.02;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "water-nsquared"; p.suite = "splash2";
        p.paperSpeedup16 = 5.77; p.paperClass = "moderate";
        p.totalIters = 32000; p.computePerIter = 260; p.memPerIter = 12;
        p.privateBytes = 32 * KB; p.streamFrac = 0.5;
        p.sharedBytes = 128 * KB; p.sharedFrac = 0.02;
        p.sharedHotFrac = 0.5;
        p.numLocks = 16; p.lockFreq = 0.3; p.csCompute = 60; p.csMem = 2;
        p.parallelismCap = 7.06; p.capJitter = 0.15;
        p.barrierPhases = 12; p.imbalanceSkew = 0.10;
        p.parOverheadFrac = 0.02;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "fluidanimate"; p.suite = "parsec"; p.input = "medium";
        p.paperSpeedup16 = 5.71; p.paperClass = "moderate";
        p.totalIters = 32000; p.computePerIter = 200; p.memPerIter = 16;
        p.privateBytes = 48 * KB; p.streamFrac = 0.6;
        p.sharedBytes = 256 * KB; p.sharedFrac = 0.02; p.sharedHotFrac = 0.4;
        p.numLocks = 64; p.lockFreq = 0.4; p.csCompute = 24; p.csMem = 2;
        p.parallelismCap = 9.24; p.capJitter = 0.18;
        p.barrierPhases = 40; p.imbalanceSkew = 0.12;
        p.parOverheadFrac = 0.18;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "lu.ncont"; p.suite = "splash2";
        p.paperSpeedup16 = 5.53; p.paperClass = "moderate";
        p.totalIters = 28000; p.computePerIter = 220; p.memPerIter = 16;
        p.privateBytes = 160 * KB;
        p.privateHotBytes = 84 * KB; p.privateHotFrac = 0.994;
        p.streamFrac = 0.5;
        p.sharedBytes = 768 * KB; p.sharedFrac = 0.04;
        p.sharedHotFrac = 0.10; p.sharedHotBytes = 48 * KB;
        p.parallelismCap = 9.75; p.capJitter = 0.2;
        p.barrierPhases = 32; p.imbalanceSkew = 0.15;
        p.sharedWindowPhases = 16;
        p.parOverheadFrac = 0.03;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "lu.cont"; p.suite = "splash2";
        p.paperSpeedup16 = 5.79; p.paperClass = "moderate";
        p.totalIters = 28000; p.computePerIter = 240; p.memPerIter = 14;
        p.privateBytes = 128 * KB;
        p.privateHotBytes = 88 * KB; p.privateHotFrac = 0.99;
        p.streamFrac = 0.5;
        p.sharedBytes = 768 * KB; p.sharedFrac = 0.05;
        p.sharedHotFrac = 0.12; p.sharedHotBytes = 48 * KB;
        p.parallelismCap = 11.87; p.capJitter = 0.2;
        p.barrierPhases = 32; p.imbalanceSkew = 0.12;
        p.sharedWindowPhases = 16;
        p.parOverheadFrac = 0.02;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "facesim"; p.suite = "parsec"; p.input = "medium";
        p.paperSpeedup16 = 5.50; p.paperClass = "moderate";
        p.totalIters = 24000; p.computePerIter = 240; p.memPerIter = 14;
        p.privateBytes = 192 * KB;
        p.privateHotBytes = 96 * KB; p.privateHotFrac = 0.996;
        p.streamFrac = 0.4;
        p.sharedBytes = 256 * KB; p.sharedFrac = 0.02; p.sharedHotFrac = 0.3;
        p.parallelismCap = 11.28; p.capJitter = 0.18;
        p.barrierPhases = 48; p.imbalanceSkew = 0.15;
        p.capScale = 0.75;
        p.parOverheadFrac = 0.03;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "facesim"; p.suite = "parsec"; p.input = "small";
        p.paperSpeedup16 = 5.46; p.paperClass = "moderate";
        p.totalIters = 18000; p.computePerIter = 240; p.memPerIter = 14;
        p.privateBytes = 160 * KB;
        p.privateHotBytes = 92 * KB; p.privateHotFrac = 0.997;
        p.streamFrac = 0.4;
        p.sharedBytes = 256 * KB; p.sharedFrac = 0.02;
        p.sharedHotFrac = 0.3;
        p.parallelismCap = 9.43; p.capJitter = 0.18;
        p.barrierPhases = 40; p.imbalanceSkew = 0.15;
        p.capScale = 0.75;
        p.parOverheadFrac = 0.04;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "fft"; p.suite = "splash2";
        p.paperSpeedup16 = 9.43; p.paperClass = "moderate";
        p.totalIters = 32000; p.computePerIter = 200; p.memPerIter = 20;
        p.privateBytes = 192 * KB;
        p.privateHotBytes = 32 * KB; p.privateHotFrac = 0.997;
        p.streamFrac = 0.85;
        p.sharedBytes = 256 * KB; p.sharedFrac = 0.02; p.sharedHotFrac = 0.5;
        p.parallelismCap = 10.93; p.capJitter = 0.1;
        p.barrierPhases = 6; p.imbalanceSkew = 0.06;
        p.parOverheadFrac = 0.02;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "canneal"; p.suite = "parsec"; p.input = "medium";
        p.paperSpeedup16 = 7.61; p.paperClass = "moderate";
        p.totalIters = 24000; p.computePerIter = 180; p.memPerIter = 16;
        p.privateBytes = 80 * KB; p.streamFrac = 0.3;
        p.sharedBytes = 6 * MB; p.sharedFrac = 0.03;
        p.sharedHotFrac = 0.10; p.sharedHotBytes = 64 * KB;
        p.parallelismCap = 14.03; p.capJitter = 0.12;
        p.barrierPhases = 16; p.imbalanceSkew = 0.08;
        p.sharedWindowPhases = 8;
        p.parOverheadFrac = 0.02;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "canneal"; p.suite = "parsec"; p.input = "small";
        p.paperSpeedup16 = 6.93; p.paperClass = "moderate";
        p.totalIters = 18000; p.computePerIter = 180; p.memPerIter = 16;
        p.privateBytes = 64 * KB; p.streamFrac = 0.3;
        p.sharedBytes = 3 * MB; p.sharedFrac = 0.05;
        p.sharedHotFrac = 0.06; p.sharedHotBytes = 48 * KB;
        p.parallelismCap = 12.21; p.capJitter = 0.12;
        p.barrierPhases = 16; p.imbalanceSkew = 0.08;
        p.sharedWindowPhases = 8;
        p.parOverheadFrac = 0.03;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "bfs"; p.suite = "rodinia";
        p.paperSpeedup16 = 5.65; p.paperClass = "moderate";
        p.totalIters = 24000; p.computePerIter = 160; p.memPerIter = 20;
        p.privateBytes = 80 * KB; p.streamFrac = 0.3;
        p.sharedBytes = 1 * MB; p.sharedFrac = 0.04;
        p.sharedHotFrac = 0.03; p.sharedHotBytes = 48 * KB;
        p.parallelismCap = 11.58; p.capJitter = 0.25;
        p.barrierPhases = 48; p.imbalanceSkew = 0.15;
        p.sharedWindowPhases = 32;
        p.parOverheadFrac = 0.03;
        add(p);
    }

    // ---- poor scaling -----------------------------------------------------
    {
        BenchmarkProfile p;
        p.name = "ferret"; p.suite = "parsec"; p.input = "medium";
        p.paperSpeedup16 = 4.77; p.paperClass = "poor";
        p.totalIters = 24000; p.computePerIter = 220; p.memPerIter = 12;
        p.privateBytes = 48 * KB; p.streamFrac = 0.5;
        p.sharedBytes = 128 * KB; p.sharedFrac = 0.015;
        p.sharedHotFrac = 0.5;
        p.parallelismCap = 6.95; p.capJitter = 0.18;
        p.barrierPhases = 48; p.imbalanceSkew = 0.10;
        p.capScale = 0.85;
        p.parOverheadFrac = 0.04;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "water-spatial"; p.suite = "splash2";
        p.paperSpeedup16 = 4.57; p.paperClass = "poor";
        p.totalIters = 28000; p.computePerIter = 240; p.memPerIter = 12;
        p.privateBytes = 32 * KB; p.streamFrac = 0.5;
        p.sharedBytes = 128 * KB; p.sharedFrac = 0.015;
        p.sharedHotFrac = 0.5;
        p.numLocks = 8; p.lockFreq = 0.2; p.csCompute = 60; p.csMem = 2;
        p.parallelismCap = 5.26; p.capJitter = 0.15;
        p.barrierPhases = 12; p.imbalanceSkew = 0.08;
        p.parOverheadFrac = 0.02;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "dedup"; p.suite = "parsec"; p.input = "medium";
        p.paperSpeedup16 = 4.12; p.paperClass = "poor";
        p.totalIters = 22000; p.computePerIter = 200; p.memPerIter = 16;
        p.privateBytes = 64 * KB; p.streamFrac = 0.5;
        p.sharedBytes = 256 * KB; p.sharedFrac = 0.02; p.sharedHotFrac = 0.4;
        p.parallelismCap = 5.19; p.capJitter = 0.2;
        p.barrierPhases = 44; p.imbalanceSkew = 0.10;
        p.parOverheadFrac = 0.05;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "freqmine"; p.suite = "parsec"; p.input = "small";
        p.paperSpeedup16 = 4.09; p.paperClass = "poor";
        p.totalIters = 20000; p.computePerIter = 220; p.memPerIter = 14;
        p.privateBytes = 64 * KB; p.streamFrac = 0.4;
        p.sharedBytes = 192 * KB; p.sharedFrac = 0.02;
        p.sharedHotFrac = 0.4;
        p.parallelismCap = 5.00; p.capJitter = 0.15;
        p.barrierPhases = 24; p.imbalanceSkew = 0.10;
        p.parOverheadFrac = 0.04;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "freqmine"; p.suite = "parsec"; p.input = "medium";
        p.paperSpeedup16 = 3.89; p.paperClass = "poor";
        p.totalIters = 24000; p.computePerIter = 220; p.memPerIter = 14;
        p.privateBytes = 96 * KB; p.streamFrac = 0.4;
        p.sharedBytes = 256 * KB; p.sharedFrac = 0.02; p.sharedHotFrac = 0.4;
        p.parallelismCap = 6.09; p.capJitter = 0.15;
        p.barrierPhases = 24; p.imbalanceSkew = 0.10;
        p.parOverheadFrac = 0.04;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "swaptions"; p.suite = "parsec"; p.input = "small";
        p.paperSpeedup16 = 3.81; p.paperClass = "poor";
        p.totalIters = 8000; p.computePerIter = 300; p.memPerIter = 10;
        p.privateBytes = 16 * KB; p.streamFrac = 0.5;
        p.sharedBytes = 32 * KB; p.sharedFrac = 0.01; p.sharedHotFrac = 0.5;
        p.parallelismCap = 5.62; p.capJitter = 0.2;
        p.barrierPhases = 16; p.imbalanceSkew = 0.20;
        p.parOverheadFrac = 0.26;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "dedup"; p.suite = "parsec"; p.input = "small";
        p.paperSpeedup16 = 3.56; p.paperClass = "poor";
        p.totalIters = 16000; p.computePerIter = 200; p.memPerIter = 16;
        p.privateBytes = 48 * KB; p.streamFrac = 0.5;
        p.sharedBytes = 256 * KB; p.sharedFrac = 0.02;
        p.sharedHotFrac = 0.4;
        p.parallelismCap = 5.12; p.capJitter = 0.2;
        p.barrierPhases = 20; p.imbalanceSkew = 0.10;
        p.parOverheadFrac = 0.06;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "bodytrack"; p.suite = "parsec"; p.input = "small";
        p.paperSpeedup16 = 3.02; p.paperClass = "poor";
        p.totalIters = 16000; p.computePerIter = 220; p.memPerIter = 12;
        p.privateBytes = 32 * KB; p.streamFrac = 0.5;
        p.sharedBytes = 128 * KB; p.sharedFrac = 0.015;
        p.sharedHotFrac = 0.5;
        p.parallelismCap = 4.02; p.capJitter = 0.15;
        p.barrierPhases = 32; p.imbalanceSkew = 0.12;
        p.parOverheadFrac = 0.08;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "ferret"; p.suite = "parsec"; p.input = "small";
        p.paperSpeedup16 = 2.94; p.paperClass = "poor";
        p.totalIters = 18000; p.computePerIter = 220; p.memPerIter = 12;
        p.privateBytes = 48 * KB; p.streamFrac = 0.5;
        p.sharedBytes = 128 * KB; p.sharedFrac = 0.015;
        p.sharedHotFrac = 0.5;
        p.parallelismCap = 4.02; p.capJitter = 0.15;
        p.barrierPhases = 56; p.imbalanceSkew = 0.10;
        p.capScale = 0.85;
        p.parOverheadFrac = 0.05;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "needle"; p.suite = "rodinia";
        p.paperSpeedup16 = 4.14; p.paperClass = "poor";
        p.totalIters = 20000; p.computePerIter = 160; p.memPerIter = 20;
        p.privateBytes = 80 * KB; p.streamFrac = 0.4;
        p.sharedBytes = 1 * MB; p.sharedFrac = 0.05;
        p.sharedHotFrac = 0.08; p.sharedHotBytes = 48 * KB;
        p.parallelismCap = 7.89; p.capJitter = 0.25;
        p.barrierPhases = 48; p.imbalanceSkew = 0.18;
        p.sharedWindowPhases = 24;
        p.parOverheadFrac = 0.04;
        add(p);
    }

    return v;
}

} // namespace

const std::vector<BenchmarkProfile> &
benchmarkSuite()
{
    static const std::vector<BenchmarkProfile> suite = buildSuite();
    return suite;
}

const NamedRegistry<const BenchmarkProfile *> &
profileRegistry()
{
    static const NamedRegistry<const BenchmarkProfile *> registry = [] {
        NamedRegistry<const BenchmarkProfile *> r("benchmark profile",
                                                  "benchmark profiles");
        for (const BenchmarkProfile &p : benchmarkSuite())
            r.add(p.label(), &p);
        // Bare names resolve to the first input variant ("facesim" ->
        // "facesim_small"), the historical profileByLabel() behaviour.
        // addAlias() keeps first-wins semantics and skips bare names
        // that already are primary labels (single-input benchmarks).
        for (const BenchmarkProfile &p : benchmarkSuite())
            r.addAlias(p.name, p.label());
        return r;
    }();
    return registry;
}

const BenchmarkProfile &
profileByLabel(const std::string &label)
{
    try {
        return *profileRegistry().at(label);
    } catch (const std::invalid_argument &e) {
        fatal(e.what()); // lists every valid label
    }
}

void
encodeProfile(std::string &out, const BenchmarkProfile &p)
{
    putKey(out, "profile.name", p.name);
    putKey(out, "profile.suite", p.suite);
    putKey(out, "profile.input", p.input);
    putKey(out, "profile.totalIters", p.totalIters);
    putKey(out, "profile.computePerIter", p.computePerIter);
    putKey(out, "profile.memPerIter", p.memPerIter);
    putKey(out, "profile.storeFrac", p.storeFrac);
    putKey(out, "profile.sharedStoreFrac", p.sharedStoreFrac);
    putKey(out, "profile.privateBytes", p.privateBytes);
    putKey(out, "profile.privateHotBytes", p.privateHotBytes);
    putKey(out, "profile.privateHotFrac", p.privateHotFrac);
    putKey(out, "profile.streamFrac", p.streamFrac);
    putKey(out, "profile.sharedBytes", p.sharedBytes);
    putKey(out, "profile.sharedFrac", p.sharedFrac);
    putKey(out, "profile.sharedHotFrac", p.sharedHotFrac);
    putKey(out, "profile.sharedHotBytes", p.sharedHotBytes);
    putKey(out, "profile.sharedWindowPhases", p.sharedWindowPhases);
    putKey(out, "profile.numLocks", p.numLocks);
    putKey(out, "profile.lockFreq", p.lockFreq);
    putKey(out, "profile.csCompute", p.csCompute);
    putKey(out, "profile.csMem", p.csMem);
    putKey(out, "profile.barrierPhases", p.barrierPhases);
    putKey(out, "profile.imbalanceSkew", p.imbalanceSkew);
    putKey(out, "profile.parallelismCap", p.parallelismCap);
    putKey(out, "profile.capJitter", p.capJitter);
    putKey(out, "profile.capScale", p.capScale);
    putKey(out, "profile.finalBarrier", p.finalBarrier);
    putKey(out, "profile.parOverheadFrac", p.parOverheadFrac);
    putKey(out, "profile.seed", p.seed);
}

} // namespace sst
