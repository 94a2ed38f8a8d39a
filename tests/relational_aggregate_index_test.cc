#include <gtest/gtest.h>

#include "medical/generator.h"
#include "medical/records.h"
#include "relational/aggregate.h"

namespace medsync::relational {
namespace {

using medical::kAddress;
using medical::kDosage;
using medical::kMedicationName;
using medical::kPatientId;

Table Records(size_t n = 100, uint64_t seed = 3) {
  return medical::GenerateFullRecords({.seed = seed, .record_count = n});
}

TEST(GroupByTest, CountPerGroup) {
  Table t = Records(200);
  Result<Table> counts =
      GroupBy(t, {kAddress}, {{AggregateFn::kCount, "", "patients"}});
  ASSERT_TRUE(counts.ok()) << counts.status();
  EXPECT_TRUE(counts->schema().HasAttribute("patients"));
  int64_t total = 0;
  for (const auto& [key, row] : counts->scan()) {
    total += row[1].AsInt();
    EXPECT_GT(row[1].AsInt(), 0);
  }
  EXPECT_EQ(total, 200);
}

TEST(GroupByTest, MinMaxSumAvgOverInts) {
  Schema schema = *Schema::Create({{"g", DataType::kString, false},
                                   {"id", DataType::kInt, false},
                                   {"v", DataType::kInt, true}},
                                  {"id"});
  Table t(schema);
  auto add = [&](int64_t id, const char* g, std::optional<int64_t> v) {
    ASSERT_TRUE(t.Insert({Value::String(g), Value::Int(id),
                          v ? Value::Int(*v) : Value::Null()})
                    .ok());
  };
  add(1, "a", 10);
  add(2, "a", 20);
  add(3, "a", std::nullopt);  // NULL skipped by min/max/sum/avg
  add(4, "b", 5);

  Result<Table> out = GroupBy(
      t, {"g"},
      {{AggregateFn::kCount, "", "n"},
       {AggregateFn::kMin, "v", "lo"},
       {AggregateFn::kMax, "v", "hi"},
       {AggregateFn::kSum, "v", "total"},
       {AggregateFn::kAvg, "v", "mean"}});
  ASSERT_TRUE(out.ok()) << out.status();
  Row a = *out->Get({Value::String("a")});
  EXPECT_EQ(a[1].AsInt(), 3);                  // count counts rows
  EXPECT_EQ(a[2].AsInt(), 10);
  EXPECT_EQ(a[3].AsInt(), 20);
  EXPECT_DOUBLE_EQ(a[4].AsDouble(), 30.0);
  EXPECT_DOUBLE_EQ(a[5].AsDouble(), 15.0);     // NULL excluded from avg
  Row b = *out->Get({Value::String("b")});
  EXPECT_EQ(b[1].AsInt(), 1);
  EXPECT_DOUBLE_EQ(b[4].AsDouble(), 5.0);
}

TEST(GroupByTest, MinMaxWorkOnStrings) {
  Table t = Records(50);
  Result<Table> out = GroupBy(t, {kAddress},
                              {{AggregateFn::kMin, kMedicationName, "first"},
                               {AggregateFn::kMax, kMedicationName, "last"}});
  ASSERT_TRUE(out.ok()) << out.status();
  for (const auto& [key, row] : out->scan()) {
    EXPECT_LE(row[1], row[2]);
  }
}

TEST(GroupByTest, Validation) {
  Table t = Records(10);
  EXPECT_FALSE(GroupBy(t, {}, {{AggregateFn::kCount, "", ""}}).ok());
  EXPECT_FALSE(GroupBy(t, {kAddress}, {}).ok());
  EXPECT_TRUE(GroupBy(t, {"ghost"}, {{AggregateFn::kCount, "", ""}})
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(GroupBy(t, {kAddress}, {{AggregateFn::kSum, "ghost", ""}})
                  .status()
                  .IsNotFound());
  // Sum over a string column is rejected.
  EXPECT_TRUE(GroupBy(t, {kAddress}, {{AggregateFn::kSum, kDosage, ""}})
                  .status()
                  .IsInvalidArgument());
  // NULL group keys are rejected.
  Table with_null = t;
  Key first = with_null.NthKey(0);
  ASSERT_TRUE(with_null.UpdateAttribute(first, kAddress, Value::Null()).ok());
  EXPECT_TRUE(GroupBy(with_null, {kAddress}, {{AggregateFn::kCount, "", ""}})
                  .status()
                  .IsInvalidArgument());
}

TEST(GroupByTest, DefaultOutputNames) {
  Table t = Records(10);
  Result<Table> out =
      GroupBy(t, {kAddress}, {{AggregateFn::kCount, "", ""},
                              {AggregateFn::kMin, kPatientId, ""}});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->schema().HasAttribute("count"));
  EXPECT_TRUE(out->schema().HasAttribute(
      std::string("min_") + kPatientId));
}

TEST(AggregateTest, WholeTableRollup) {
  Table t = Records(64);
  Result<Table> out = Aggregate(t, {{AggregateFn::kCount, "", "n"},
                                    {AggregateFn::kMin, kPatientId, "lo"},
                                    {AggregateFn::kMax, kPatientId, "hi"}});
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->row_count(), 1u);
  Row row = out->RowsInKeyOrder()[0];
  EXPECT_EQ(row[1].AsInt(), 64);
  EXPECT_EQ(row[2].AsInt(), 1000);
  EXPECT_EQ(row[3].AsInt(), 1063);
}

TEST(AggregateTest, EmptyTable) {
  Table empty(medical::FullRecordSchema());
  Result<Table> out = Aggregate(empty, {{AggregateFn::kCount, "", "n"},
                                        {AggregateFn::kMin, kPatientId,
                                         "lo"}});
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->row_count(), 1u);
  Row row = out->RowsInKeyOrder()[0];
  EXPECT_EQ(row[1].AsInt(), 0);
  EXPECT_TRUE(row[2].is_null());
}

}  // namespace
}  // namespace medsync::relational
