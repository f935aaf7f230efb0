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
  for (const NdpAggSpec& a : request.aggregates) {
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
  // The response is row-shaped (the S3-Select payload): rows are made here.
  std::vector<Row> rows = ChunkToRows(chunk);
  response->rows_visited = response->scan.rows_visited;
  response->rows_output = rows.size();
  response->bytes_scanned = response->scan.bytes_fetched;

  if (request.aggregates.empty()) {
    response->response_bytes = 0;
    for (const Row& row : rows) response->response_bytes += RowBytes(row);
    response->rows = std::move(rows);
    return Status::OK();
  }

  // Aggregate pushdown: fold survivors into per-group partials in row
  // order. Per-value accumulation is bit-identical to the engine's batch
  // fold for the pushable (exact) aggregate set.
  for (const Row& row : rows) {
    GroupKey key;
    key.reserve(request.group_columns.size());
    for (size_t pos : request.group_columns) key.push_back(row[pos]);
    auto [it, inserted] = response->groups.try_emplace(
        std::move(key), std::vector<AggState>(request.aggregates.size()));
    for (size_t a = 0; a < request.aggregates.size(); ++a) {
      const NdpAggSpec& spec = request.aggregates[a];
      if (spec.column == SIZE_MAX) {
        it->second[a].FoldCountOnly(1);
      } else {
        it->second[a].Accumulate(spec.fn, row[spec.column]);
      }
    }
  }
  for (const auto& [key, states] : response->groups) {
    response->response_bytes += RowBytes(key);
    for (const AggState& s : states) response->response_bytes += s.TransferBytes();
  }
  return Status::OK();
}

}  // namespace eon
