#include "common/status.h"

#include <gtest/gtest.h>

#include "common/macros.h"

namespace vaq {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, FactoryFunctionsSetCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("bad").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::InvalidArgument("bad budget").message(), "bad budget");
}

TEST(StatusTest, ToStringIncludesCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("bad budget").ToString(),
            "InvalidArgument: bad budget");
  EXPECT_EQ(Status::Internal("").ToString(), "Internal");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.status().message(), "missing");
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  ASSERT_TRUE(r.ok());
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

TEST(ResultTest, ArrowOperator) {
  Result<std::string> r(std::string("hello"));
  EXPECT_EQ(r->size(), 5u);
}

Status FailingHelper() { return Status::IoError("disk"); }

Status PropagatingHelper() {
  VAQ_RETURN_IF_ERROR(FailingHelper());
  return Status::OK();
}

TEST(MacrosTest, ReturnIfErrorPropagates) {
  const Status st = PropagatingHelper();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

Result<int> ProducesValue() { return 7; }
Result<int> ProducesError() { return Status::Internal("boom"); }

Result<int> AssignOrReturnUser(bool fail) {
  VAQ_ASSIGN_OR_RETURN(int v, fail ? ProducesError() : ProducesValue());
  return v + 1;
}

TEST(MacrosTest, AssignOrReturnHappyPath) {
  auto r = AssignOrReturnUser(false);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 8);
}

TEST(MacrosTest, AssignOrReturnErrorPath) {
  auto r = AssignOrReturnUser(true);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace vaq
