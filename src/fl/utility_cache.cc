#include "fl/utility_cache.h"

#include <algorithm>
#include <atomic>

#include "fl/utility_store.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace fedshap {

UtilityCache::UtilityCache(const UtilityFunction* fn) : fn_(fn) {
  FEDSHAP_CHECK(fn != nullptr);
}

Result<UtilityRecord> UtilityCache::Get(const Coalition& coalition,
                                        bool* fresh) {
  if (fresh != nullptr) *fresh = false;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    auto it = entries_.find(coalition);
    if (it != entries_.end()) {
      ++hits_;
      return it->second;
    }
    // Single-flight: first asker computes, racers wait for its result
    // instead of duplicating a full FL training.
    if (inflight_.insert(coalition).second) break;
    inflight_done_.wait(lock);
  }
  UtilityStore* store = store_;
  lock.unlock();
  return ComputeClaimed(store, coalition, fresh);
}

std::vector<size_t> UtilityCache::ClaimMisses(
    const std::vector<Coalition>& coalitions, UtilityStore** store) {
  std::vector<size_t> claimed;
  std::lock_guard<std::mutex> lock(mutex_);
  *store = store_;
  for (size_t i = 0; i < coalitions.size(); ++i) {
    if (entries_.count(coalitions[i]) > 0) continue;
    if (inflight_.insert(coalitions[i]).second) claimed.push_back(i);
  }
  return claimed;
}

void UtilityCache::Unclaim(const Coalition& coalition) {
  std::lock_guard<std::mutex> lock(mutex_);
  inflight_.erase(coalition);
  inflight_done_.notify_all();
}

bool UtilityCache::ReadThrough(UtilityStore* store,
                               const Coalition& coalition,
                               UtilityRecord* record) {
  // The attached store may already hold this coalition from an earlier
  // process. A store hit is served with its original training cost and
  // trains nothing; the single-flight slot the caller holds keeps racers
  // from hitting the store (or training) redundantly. Store IO happens
  // outside the cache mutex so concurrent memory hits never stall on
  // disk.
  if (store == nullptr || !store->Lookup(coalition, record)) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  inflight_.erase(coalition);
  inflight_done_.notify_all();
  if (entries_.emplace(coalition, *record).second) {
    ++preloaded_;
    recorded_cost_seconds_ += record->cost_seconds;
  }
  ++hits_;
  return true;
}

void UtilityCache::Publish(UtilityStore* store, const Coalition& coalition,
                           const UtilityRecord& record) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    inflight_.erase(coalition);
    inflight_done_.notify_all();
    entries_.emplace(coalition, record);
    ++misses_;
    total_compute_seconds_ += record.cost_seconds;
    recorded_cost_seconds_ += record.cost_seconds;
  }
  // Store IO happens outside the cache mutex: the store is internally
  // synchronized, and an fsync must not stall concurrent hits on the
  // evaluation hot path.
  WriteThrough(store, coalition, record);
}

Result<UtilityRecord> UtilityCache::ComputeClaimed(UtilityStore* store,
                                                   const Coalition& coalition,
                                                   bool* fresh) {
  UtilityRecord record;
  if (ReadThrough(store, coalition, &record)) return record;
  Stopwatch timer;
  Result<double> utility = fn_->Evaluate(coalition);
  if (!utility.ok()) {
    // A failed evaluation counts as neither hit nor miss; a waiter
    // finding no entry retakes the in-flight slot and retries it.
    Unclaim(coalition);
    return utility.status();
  }
  record = UtilityRecord{utility.value(), timer.ElapsedSeconds()};
  Publish(store, coalition, record);
  if (fresh != nullptr) *fresh = true;
  return record;
}

void UtilityCache::WriteThrough(UtilityStore* store,
                                const Coalition& coalition,
                                const UtilityRecord& record) {
  if (store == nullptr) return;
  // Write-through: the freshly trained utility becomes durable via an
  // O(record) append. The byte-counted flush interval bounds how many
  // appended-but-unsynced bytes a crash can lose.
  const size_t appended = store->Put(coalition, record);
  bool should_flush = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (flush_bytes_ > 0) {
      unflushed_bytes_ += appended;
      if (unflushed_bytes_ >= flush_bytes_) {
        unflushed_bytes_ = 0;
        should_flush = true;
      }
    }
  }
  if (should_flush) {
    Status flushed = store->Flush();
    if (!flushed.ok()) {
      FEDSHAP_LOG(Warning) << "utility store flush failed: "
                           << flushed.ToString();
    }
  }
}

void UtilityCache::AttachStore(UtilityStore* store, size_t flush_bytes) {
  FEDSHAP_CHECK(store != nullptr);
  std::lock_guard<std::mutex> lock(mutex_);
  store_ = store;
  flush_bytes_ = flush_bytes;
  unflushed_bytes_ = 0;
  preloaded_ = 0;
}

Status UtilityCache::Prefetch(const std::vector<Coalition>& coalitions,
                              std::vector<uint8_t>* fresh) {
  if (fresh != nullptr) fresh->assign(coalitions.size(), 0);
  UtilityStore* store = nullptr;
  std::vector<size_t> claimed = ClaimMisses(coalitions, &store);
  WorkerBudget::Lease lease(WorkerBudget::Global(),
                            static_cast<int>(claimed.size()) - 1);
  if (lease.granted() == 0) {
    // Nothing to fan out to: hand the misses back to the caller's own
    // in-order Gets, which keep the budget for their client fan-out.
    for (size_t i : claimed) Unclaim(coalitions[i]);
    return Status::OK();
  }
  // Largest coalition first: the longest trainings start first, so the
  // lanes run out of work at about the same time.
  std::stable_sort(claimed.begin(), claimed.end(), [&](size_t a, size_t b) {
    return coalitions[a].Count() > coalitions[b].Count();
  });
  std::vector<Status> statuses(claimed.size(), Status::OK());
  std::atomic<size_t> cursor{0};
  auto lane = [&] {
    for (size_t k = cursor.fetch_add(1); k < claimed.size();
         k = cursor.fetch_add(1)) {
      const size_t i = claimed[k];
      bool computed = false;
      Result<UtilityRecord> record =
          ComputeClaimed(store, coalitions[i], &computed);
      if (!record.ok()) statuses[k] = record.status();
      // Each miss is one lane's alone, so its slots need no lock.
      if (fresh != nullptr) (*fresh)[i] = computed ? 1 : 0;
    }
  };
  {
    TaskGroup group(SharedTrainingPool());
    for (int s = 0; s < lease.granted(); ++s) group.Run(lane);
    lane();
  }
  // The lowest failing index: the error a sequential pass would return.
  size_t first_failed = coalitions.size();
  Status first_status = Status::OK();
  for (size_t k = 0; k < claimed.size(); ++k) {
    if (!statuses[k].ok() && claimed[k] < first_failed) {
      first_failed = claimed[k];
      first_status = statuses[k];
    }
  }
  return first_status;
}

Status UtilityCache::PrefetchFused(const std::vector<Coalition>& coalitions,
                                   std::vector<uint8_t>* fresh) {
  if (fresh != nullptr) fresh->assign(coalitions.size(), 0);
  UtilityStore* store = nullptr;
  std::vector<size_t> misses;
  for (size_t i : ClaimMisses(coalitions, &store)) {
    UtilityRecord stored;
    if (!ReadThrough(store, coalitions[i], &stored)) misses.push_back(i);
  }
  if (misses.empty()) return Status::OK();
  std::vector<Coalition> batch;
  batch.reserve(misses.size());
  for (size_t i : misses) batch.push_back(coalitions[i]);
  Stopwatch timer;
  Result<std::vector<double>> values = fn_->EvaluateBatchFused(batch);
  // The fused dispatch's wall time is amortized evenly: per-record cost
  // has no per-coalition breakdown once the scoring GEMMs are stacked.
  const double per_record_seconds =
      timer.ElapsedSeconds() / static_cast<double>(misses.size());
  for (size_t j = 0; j < misses.size(); ++j) {
    // On failure no entry is published (mirrors Get: a failed evaluation
    // is neither hit nor miss; retries recompute).
    if (!values.ok()) {
      Unclaim(batch[j]);
      continue;
    }
    Publish(store, batch[j], UtilityRecord{(*values)[j], per_record_seconds});
    if (fresh != nullptr) (*fresh)[misses[j]] = 1;
  }
  return values.status();
}

void UtilityCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  hits_ = 0;
  misses_ = 0;
  preloaded_ = 0;
  total_compute_seconds_ = 0.0;
  recorded_cost_seconds_ = 0.0;
  // Also restart the flush-interval pacing: bytes appended before the
  // clear must not make the next epoch's first flush fire early (or,
  // mis-tracked, late past the crash-loss bound).
  unflushed_bytes_ = 0;
}

size_t UtilityCache::unflushed_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return unflushed_bytes_;
}

size_t UtilityCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

size_t UtilityCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

size_t UtilityCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

size_t UtilityCache::preloaded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return preloaded_;
}

double UtilityCache::total_compute_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_compute_seconds_;
}

double UtilityCache::recorded_cost_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recorded_cost_seconds_;
}

Result<double> UtilitySession::Evaluate(const Coalition& coalition) {
  return EvaluateInternal(coalition, /*prefetched_fresh=*/false);
}

Result<double> UtilitySession::EvaluateInternal(const Coalition& coalition,
                                                bool prefetched_fresh) {
  bool computed = false;
  FEDSHAP_ASSIGN_OR_RETURN(UtilityRecord record,
                           cache_->Get(coalition, &computed));
  std::lock_guard<std::mutex> lock(mutex_);
  ++num_evaluations_;
  if (seen_.insert(coalition).second) {
    charged_seconds_ += record.cost_seconds;
    // A training counts as this session's own when this evaluation
    // computed it, when the batch prefetch below computed it on this
    // session's behalf before the sequential accounting pass ran, or
    // when a speculative prefetcher posted a credit for it. The cache's
    // single-flight guarantee means exactly one of these can be true per
    // coalition, so the count is exact under any interleaving.
    const bool credited = credits_.erase(coalition) > 0;
    if (credited) ++prefetch_consumed_;
    if (computed || prefetched_fresh || credited) ++fresh_trainings_;
  }
  return record.utility;
}

void UtilitySession::CreditPrefetchedTraining(const Coalition& coalition) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++prefetch_credited_;
  if (seen_.count(coalition) > 0) {
    // The session evaluated the coalition while the prefetcher was still
    // training it (its Get waited on the in-flight slot, so neither
    // `computed` nor a credit attributed the training then). Attribute
    // it now — the training was on this session's behalf.
    ++prefetch_consumed_;
    ++fresh_trainings_;
  } else {
    credits_.insert(coalition);
  }
}

size_t UtilitySession::num_evaluations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return num_evaluations_;
}

size_t UtilitySession::num_distinct() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return seen_.size();
}

size_t UtilitySession::num_fresh_trainings() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fresh_trainings_;
}

double UtilitySession::charged_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return charged_seconds_;
}

size_t UtilitySession::prefetch_credited() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return prefetch_credited_;
}

size_t UtilitySession::prefetch_consumed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return prefetch_consumed_;
}

Result<std::vector<double>> UtilitySession::EvaluateBatch(
    const std::vector<Coalition>& coalitions) {
  std::vector<uint8_t> fresh;
  if (coalitions.size() > 1) {
    // Train the misses ahead, in parallel. A failure is deliberately
    // ignored here: the sequential pass below rediscovers it at the same
    // coalition a sequential run would have, so the returned error and
    // the *session* accounting are deterministic.
    (void)(fused_ ? cache_->PrefetchFused(coalitions, &fresh)
                  : cache_->Prefetch(coalitions, &fresh));
  }
  std::vector<double> values;
  values.reserve(coalitions.size());
  for (size_t i = 0; i < coalitions.size(); ++i) {
    const bool prefetched_fresh = i < fresh.size() && fresh[i] != 0;
    FEDSHAP_ASSIGN_OR_RETURN(double utility,
                             EvaluateInternal(coalitions[i],
                                              prefetched_fresh));
    values.push_back(utility);
  }
  return values;
}

}  // namespace fedshap
