/**
 * @file
 * Tests for the figure catalogue (src/observe/figures.hh) and the
 * EXPERIMENTS.md generated-block markers.  Nothing here simulates:
 * plans are built and inspected, never run, a malformed marker must be
 * rejected before regenerateExperiments() runs anything, and the
 * paper's shape is checked on the committed blocks (which the
 * `--regen-experiments --check` CI step proves current).
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "observe/figures.hh"
#include "observe/report.hh"
#include "workloads/workloads.hh"

namespace adore
{
namespace
{

std::string
committedExperiments()
{
    std::string text;
    EXPECT_TRUE(report::readFile(ADORE_SOURCE_DIR "/EXPERIMENTS.md", text));
    return text;
}

std::vector<const report::Figure *>
wholeCatalogue()
{
    std::vector<const report::Figure *> all;
    for (const report::Figure &fig : report::figureCatalogue())
        all.push_back(&fig);
    return all;
}

TEST(FigureCatalogue, NamesAreUnique)
{
    std::set<std::string> names;
    for (const report::Figure &fig : report::figureCatalogue())
        EXPECT_TRUE(names.insert(fig.name).second) << fig.name;
}

TEST(FigureCatalogue, ExperimentsHeadingsCiteEveryEntry)
{
    std::set<std::string> cited;
    std::istringstream in(committedExperiments());
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("## ", 0) != 0)
            continue;
        for (std::size_t open = line.find('`');
             open != std::string::npos;) {
            std::size_t close = line.find('`', open + 1);
            ASSERT_NE(close, std::string::npos) << line;
            std::string name = line.substr(open + 1, close - open - 1);
            EXPECT_NE(report::findFigure(name), nullptr)
                << "heading cites `" << name << "`, not a catalogue entry";
            cited.insert(name);
            open = line.find('`', close + 1);
        }
    }
    for (const report::Figure &fig : report::figureCatalogue())
        EXPECT_EQ(cited.count(fig.name), 1u)
            << fig.name << " has no EXPERIMENTS.md section";
}

TEST(FigureCatalogue, CommittedMarkersPlanExactly85Runs)
{
    std::vector<report::GeneratedBlock> blocks =
        report::generatedBlocks(committedExperiments());
    std::vector<const report::Figure *> figures;
    for (const report::GeneratedBlock &block : blocks)
        figures.push_back(report::findFigure(block.tag));
    ASSERT_EQ(figures.size(), 3u);

    report::FigurePlan plan(figures);
    std::set<report::ArmRun> distinct(plan.armRuns().begin(),
                                      plan.armRuns().end());
    EXPECT_EQ(distinct.size(), plan.armRuns().size());
    EXPECT_EQ(plan.jobCount(), 0u);
    // perfbench's experiments_regen workload assumes this count.
    EXPECT_EQ(plan.armRuns().size(), 85u);
}

TEST(FigureCatalogue, AllPlansEachArmPairOnce)
{
    std::vector<const report::Figure *> all = wholeCatalogue();
    report::FigurePlan plan(all);
    std::set<report::ArmRun> distinct(plan.armRuns().begin(),
                                      plan.armRuns().end());
    EXPECT_EQ(distinct.size(), plan.armRuns().size());
    for (const report::Figure *fig : all)
        for (const auto &info : workloads::allWorkloads())
            for (report::Arm arm : fig->arms)
                EXPECT_EQ(distinct.count({info.name, arm}), 1u)
                    << fig->name << " " << info.name;
    // The ablation's sweep points at the arms' own settings (k=3 on
    // applu/art/swim, R=4000 on mcf/mesa) read the arms, five
    // simulations fewer than one job per sweep point.  With Table 1's
    // 17 training runs, `--figure all` simulates 214 times.
    EXPECT_EQ(plan.armRuns().size() + plan.jobCount(), 197u);
}

/** The data rows of the markdown table in generated block @p tag of
 *  @p text, keyed by their first cell (header and rule rows skipped). */
std::map<std::string, std::vector<std::string>>
blockRows(const std::string &text, const std::string &tag)
{
    std::map<std::string, std::vector<std::string>> rows;
    for (const report::GeneratedBlock &block : report::generatedBlocks(text)) {
        if (block.tag != tag)
            continue;
        std::istringstream in(
            text.substr(block.bodyBegin, block.bodyEnd - block.bodyBegin));
        bool header = true;
        for (std::string line; std::getline(in, line);) {
            if (line.rfind("| ", 0) != 0)
                continue;
            if (header) {  // the header row; the rule row is "|---|..."
                header = false;
                continue;
            }
            std::vector<std::string> cells;
            std::istringstream cols(line.substr(1));
            for (std::string cell; std::getline(cols, cell, '|');)
                cells.push_back(cell.substr(1, cell.size() - 2));
            rows[cells.at(0)] = cells;
        }
    }
    return rows;
}

/** "**+58.0%**" -> 58.0, "−2.8%" (U+2212) -> -2.8. */
double
percentCell(std::string cell)
{
    if (cell.rfind("**", 0) == 0)
        cell = cell.substr(2, cell.size() - 4);
    const std::string minus = "−";
    if (cell.rfind(minus, 0) == 0)
        return -std::stod(cell.substr(minus.size()));
    return std::stod(cell);
}

/**
 * The paper's qualitative results as predicates over the committed
 * fig07a and table2 blocks, so a fidelity regression fails here rather
 * than as drifted digits.  gcc is not asserted to be the only loser:
 * gap and gzip are also slightly negative, within the paper's ≈0.
 */
TEST(FigureCatalogue, CommittedBlocksKeepThePapersShape)
{
    const std::string text = committedExperiments();
    auto fig07a = blockRows(text, "fig07a");
    auto table2 = blockRows(text, "table2");
    ASSERT_EQ(fig07a.size(), workloads::allWorkloads().size());
    ASSERT_EQ(table2.size(), workloads::allWorkloads().size());

    // fig07a columns: benchmark, paper, measured, phases, d/i/p.
    std::string best, worst;
    for (const auto &[name, cells] : fig07a) {
        double gain = percentCell(cells.at(2));
        if (best.empty() || gain > percentCell(fig07a[best].at(2)))
            best = name;
        if (worst.empty() || gain < percentCell(fig07a[worst].at(2)))
            worst = name;
    }
    EXPECT_EQ(best, "mcf") << "mcf must gain the most";
    EXPECT_EQ(worst, "gcc") << "gcc must gain the least";
    EXPECT_LT(percentCell(fig07a["gcc"].at(2)), 0.0) << "gcc must lose";

    // table2 columns: benchmark, suite, direct, indirect, pointer,
    // phases optimized, miss rates.
    const std::vector<std::string> &mcf = table2["mcf"];
    EXPECT_EQ(mcf.at(2), "0") << "mcf direct prefetches";
    EXPECT_EQ(mcf.at(3), "0") << "mcf indirect prefetches";
    EXPECT_GT(std::stoi(mcf.at(4)), 0) << "mcf pointer-chasing prefetches";
    EXPECT_EQ(table2["gzip"].at(5), "0") << "gzip phases optimized";
}

/** regenerateExperiments(@p doc) must throw, naming @p tag. */
void
expectRejected(const std::string &doc, const std::string &tag)
{
    try {
        report::regenerateExperiments(doc);
        ADD_FAILURE() << "accepted:\n" << doc;
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(tag), std::string::npos)
            << e.what();
    }
}

const std::string kFig07a = "<!-- BEGIN GENERATED: fig07a -->\nold\n"
                            "<!-- END GENERATED: fig07a -->\n";

TEST(GeneratedMarkers, RejectsBeginWithoutEnd)
{
    expectRejected(kFig07a + "<!-- BEGIN GENERATED: table2 -->\nold\n",
                   "table2");
    expectRejected("<!-- BEGIN GENERATED: table2 -->\nold\n" + kFig07a,
                   "table2");
}

TEST(GeneratedMarkers, RejectsEndBeforeBegin)
{
    expectRejected("<!-- END GENERATED: table2 -->\nold\n"
                   "<!-- BEGIN GENERATED: table2 -->\n",
                   "table2");
}

TEST(GeneratedMarkers, RejectsDuplicateBegin)
{
    expectRejected(kFig07a + kFig07a, "fig07a");
}

TEST(GeneratedMarkers, RejectsUnknownTag)
{
    expectRejected("<!-- BEGIN GENERATED: fig7a -->\nold\n"
                   "<!-- END GENERATED: fig7a -->\n",
                   "fig7a");
    // A catalogue entry that renders no block is unknown as a tag too.
    expectRejected("<!-- BEGIN GENERATED: fig07b -->\nold\n"
                   "<!-- END GENERATED: fig07b -->\n",
                   "fig07b");
}

} // namespace
} // namespace adore
