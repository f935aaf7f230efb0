#include "columnar/ndp.h"

namespace eon {

namespace {

/// FileFetcher over the store's raw reader. Near-data: these reads never
/// cross the network, so nothing here is metered — ScanObjectResponse
/// carries the local bytes as `bytes_scanned` instead.
class RawReaderFetcher : public FileFetcher {
 public:
  explicit RawReaderFetcher(const RawObjectReader& reader)
      : reader_(reader) {}

  Result<std::string> Fetch(const std::string& key) override {
    return reader_(key);
  }

 private:
  const RawObjectReader& reader_;
};

}  // namespace

bool IsPushableAggregate(AggFn fn, DataType input_type) {
  switch (fn) {
    case AggFn::kCount:
      return true;
    case AggFn::kMin:
    case AggFn::kMax:
      return true;  // Order-independent for every type.
    case AggFn::kSum:
    case AggFn::kAvg:
      // int64 partials are exact (sum_int plus a double that represents
      // the same integer exactly below 2^53); double partials depend on
      // addition order and would break bit-identity.
      return input_type == DataType::kInt64;
    case AggFn::kCountDistinct:
      return false;  // Unbounded state transfer.
  }
  return false;
}

Status ExecuteObjectScan(const RawObjectReader& reader,
                         const ScanObjectRequest& request,
                         ScanObjectResponse* response) {
  if (response == nullptr) {
    return Status::InvalidArgument("ScanObject: null response");
  }
  *response = ScanObjectResponse{};
  const size_t out_width = request.output_columns.size();
  for (size_t pos : request.group_columns) {
    if (pos >= out_width) {
      return Status::InvalidArgument("ScanObject: group column out of range");
    }
  }
  for (const AggColumn& a : request.aggregates) {
    if (a.column == SIZE_MAX) {
      if (a.fn != AggFn::kCount) {
        return Status::InvalidArgument(
            "ScanObject: only COUNT may omit its input column");
      }
      continue;
    }
    if (a.column >= out_width) {
      return Status::InvalidArgument(
          "ScanObject: aggregate column out of range");
    }
    const DataType t =
        request.schema.column(request.output_columns[a.column]).type;
    if (!IsPushableAggregate(a.fn, t)) {
      return Status::InvalidArgument(
          "ScanObject: aggregate is not pushable store-side");
    }
  }

  // Run the regular ROS scan pipeline against the store's own bytes —
  // encoded predicate eval + selective decode, the exact code path a local
  // scan uses, which is what makes pushed results bit-identical.
  RawReaderFetcher fetcher(reader);
  RosScanOptions scan;
  scan.output_columns = request.output_columns;
  scan.predicate = request.predicate;
  scan.predicate_columns = request.predicate_columns;
  scan.deletes = request.deletes;
  scan.row_begin = request.row_begin;
  scan.row_end = request.row_end;
  EON_ASSIGN_OR_RETURN(
      ColumnChunk chunk,
      ScanRosContainer(request.schema, request.base_key, &fetcher, scan,
                       &response->scan));
  response->rows_visited = response->scan.rows_visited;
  response->rows_output = chunk.num_rows();
  response->bytes_scanned = response->scan.bytes_fetched;

  if (request.aggregates.empty()) {
    response->response_bytes = chunk.WireBytes();
    response->chunk = std::move(chunk);
    return Status::OK();
  }

  // Aggregate pushdown: survivors fold into per-group partials through
  // the engine's own group fold, so they merge with local partials bit
  // for bit (the pushable set is exactly mergeable).
  std::vector<ColumnChunk> input;
  input.push_back(std::move(chunk));
  FoldChunksIntoGroups(input, request.group_columns, request.aggregates,
                       &response->groups, &response->scan.kernel_calls);
  response->response_bytes =
      response->groups.keys.WireBytes() + response->groups.StateBytes();
  return Status::OK();
}

}  // namespace eon
