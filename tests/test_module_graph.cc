/**
 * @file
 * The module graph points one way. Every `#include "dir/..."` line
 * under src/ is an edge from the including file's directory to `dir`;
 * an edge may only point to the same or a lower layer, and the
 * directory graph has no cycle. A failure names the edge and where it
 * is, so a new include that reaches up (say, a model file including
 * spec/) fails here before it can tangle the layers.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace sst {
namespace {

namespace fs = std::filesystem;

/** Layer of each src/ directory; an include may not point upward. */
const std::map<std::string, int> kLayers = {
    {"util", 0},       {"telemetry", 1},
    // the accounting model
    {"accounting", 2}, {"cache", 2},   {"mem", 2},
    {"sync", 2},       {"sched", 2},   {"sim", 2},
    {"workload", 2},   {"core", 2},
    // frontends
    {"wdl", 3},        {"trace", 3},
    {"driver", 4},     {"spec", 5},    {"serve", 6},
};

/** Directory edge -> the first `file:line` that makes it. */
using Edges = std::map<std::pair<std::string, std::string>, std::string>;

/** Every cross-directory include under @p src. */
Edges
includeEdges(const fs::path &src)
{
    Edges edges;
    for (const fs::directory_entry &entry :
         fs::recursive_directory_iterator(src)) {
        const fs::path &path = entry.path();
        if (!entry.is_regular_file() ||
            (path.extension() != ".cc" && path.extension() != ".hh"))
            continue;
        const fs::path rel = path.lexically_relative(src);
        const std::string from = rel.begin()->string();
        std::ifstream in(path);
        std::string line;
        for (int lineno = 1; std::getline(in, line); ++lineno) {
            const std::string tag = "#include \"";
            if (line.compare(0, tag.size(), tag) != 0)
                continue;
            const std::size_t slash = line.find('/', tag.size());
            const std::size_t quote = line.find('"', tag.size());
            if (slash == std::string::npos || slash > quote)
                continue; // a file of the same directory
            const std::string to =
                line.substr(tag.size(), slash - tag.size());
            if (to != from)
                edges.emplace(std::make_pair(from, to),
                              rel.string() + ":" + std::to_string(lineno));
        }
    }
    return edges;
}

/** "from -> to (file:line)" for every edge that points upward. */
std::vector<std::string>
upwardEdges(const Edges &edges)
{
    std::vector<std::string> out;
    for (const auto &[edge, where] : edges) {
        const auto from = kLayers.find(edge.first);
        const auto to = kLayers.find(edge.second);
        if (from == kLayers.end() || to == kLayers.end() ||
            to->second > from->second)
            out.push_back(edge.first + " -> " + edge.second + " (" +
                          where + ")");
    }
    return out;
}

/** One directory cycle as "a -> b -> a", or "" when there is none. */
std::string
findCycle(const Edges &edges)
{
    std::map<std::string, std::vector<std::string>> next;
    for (const auto &entry : edges)
        next[entry.first.first].push_back(entry.first.second);
    std::set<std::string> done;
    std::vector<std::string> path;
    std::string cycle;
    const auto visit = [&](const auto &self, const std::string &dir) {
        if (done.count(dir) || !cycle.empty())
            return;
        for (std::size_t i = 0; i < path.size(); ++i) {
            if (path[i] == dir) {
                for (std::size_t j = i; j < path.size(); ++j)
                    cycle += path[j] + " -> ";
                cycle += dir;
                return;
            }
        }
        path.push_back(dir);
        for (const std::string &to : next[dir])
            self(self, to);
        path.pop_back();
        done.insert(dir);
    };
    for (const auto &entry : next)
        visit(visit, entry.first);
    return cycle;
}

const fs::path kSrc = fs::path(SST_TESTS_DATA_DIR) / ".." / ".." / "src";

TEST(ModuleGraph, EveryDirectoryHasALayer)
{
    for (const fs::directory_entry &entry : fs::directory_iterator(kSrc)) {
        const std::string dir = entry.path().filename().string();
        if (entry.is_directory()) {
            EXPECT_TRUE(kLayers.count(dir))
                << "src/" << dir << " has no layer in this test";
        }
    }
}

TEST(ModuleGraph, IncludesPointToTheSameOrALowerLayer)
{
    const Edges edges = includeEdges(kSrc);
    ASSERT_FALSE(edges.empty());
    for (const std::string &edge : upwardEdges(edges))
        ADD_FAILURE() << "include points to a higher layer: " << edge;
}

TEST(ModuleGraph, DirectoryGraphHasNoCycle)
{
    const std::string cycle = findCycle(includeEdges(kSrc));
    EXPECT_TRUE(cycle.empty()) << "include cycle: " << cycle;
}

TEST(ModuleGraph, CheckerNamesUpwardEdgesAndCycles)
{
    const Edges bad = {{{"sim", "spec"}, "sim/system.cc:3"},
                       {{"spec", "sim"}, "spec/spec.cc:9"}};
    EXPECT_EQ(upwardEdges(bad),
              std::vector<std::string>{"sim -> spec (sim/system.cc:3)"});
    EXPECT_EQ(findCycle(bad), "sim -> spec -> sim");
    EXPECT_EQ(findCycle({{{"spec", "sim"}, "spec/spec.cc:9"}}), "");
}

} // namespace
} // namespace sst
