/**
 * @file
 * Tests for the figure catalogue (src/observe/figures.hh) and the
 * EXPERIMENTS.md generated-block markers.  Nothing here simulates:
 * plans are built and inspected, never run, and a malformed marker
 * must be rejected before regenerateExperiments() runs anything.
 */

#include <gtest/gtest.h>

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
