#include "dp/vse_instance.h"

#include <algorithm>
#include <limits>
#include <unordered_set>
#include <utility>

#include "plan/compiled_instance.h"
#include "query/query_properties.h"
#include "runtime/thread_pool.h"

namespace delprop {

namespace {

/// Per-view sorted lists of tuples a delta removed, plus the index shifts
/// the compactions induce on every surviving ViewTupleId.
class TupleRemap {
 public:
  explicit TupleRemap(size_t view_count) : dead_(view_count) {}

  /// Tuples must be marked in ascending (view, tuple) order so the per-view
  /// lists stay sorted for the binary searches below.
  void MarkDead(const ViewTupleId& id) { dead_[id.view].push_back(id.tuple); }

  bool any() const {
    for (const std::vector<size_t>& d : dead_) {
      if (!d.empty()) return true;
    }
    return false;
  }

  const std::vector<size_t>& dead(size_t view) const { return dead_[view]; }

  bool IsDead(const ViewTupleId& id) const {
    const std::vector<size_t>& d = dead_[id.view];
    return std::binary_search(d.begin(), d.end(), id.tuple);
  }

  /// New id of a surviving tuple after the dead ones are compacted away.
  ViewTupleId Shift(const ViewTupleId& id) const {
    const std::vector<size_t>& d = dead_[id.view];
    size_t below = static_cast<size_t>(
        std::lower_bound(d.begin(), d.end(), id.tuple) - d.begin());
    return ViewTupleId{id.view, id.tuple - below};
  }

 private:
  std::vector<std::vector<size_t>> dead_;
};

/// The view tuple of dense id `dense` in `core`.
ViewTupleId TupleOf(const PlanCore& core, uint32_t dense) {
  uint32_t view = core.tuple_view[dense];
  return ViewTupleId{view, dense - core.view_first[view]};
}

/// Appends the kill row of `ref` in `core` — the view tuples having `ref` in
/// some witness, ascending — to `out`; nothing if no witness uses `ref`.
void AppendKillRow(const PlanCore& core, const TupleRef& ref,
                   std::vector<ViewTupleId>* out) {
  uint32_t base = core.FindBase(ref);
  if (base == CompiledInstance::kNpos) return;
  core.ForEachKilled(
      base, [&](uint32_t dense) { out->push_back(TupleOf(core, dense)); });
}

bool WitnessHits(const Witness& witness, const DeletionSet& deleted) {
  for (const TupleRef& ref : witness) {
    if (deleted.Contains(ref)) return true;
  }
  return false;
}

}  // namespace

Result<VseInstance> VseInstance::Create(
    const Database& database, std::vector<const ConjunctiveQuery*> queries,
    const DeletionSet* mask, IndexCache* index_cache) {
  VseInstance instance;
  instance.database_ = &database;
  instance.queries_ = std::move(queries);
  if (instance.queries_.empty()) {
    return Status::InvalidArgument("VseInstance needs at least one query");
  }
  instance.all_key_preserving_ = true;
  EvalOptions eval_options;
  eval_options.mask = mask;
  eval_options.index_cache = index_cache;
  // The mask becomes the instance's own base mask so ApplyDelta keeps
  // honoring it; evaluation below reads the caller's copy.
  if (mask != nullptr) instance.structure_->base_mask = *mask;
  for (const ConjunctiveQuery* query : instance.queries_) {
    Result<View> view = Evaluate(database, *query, eval_options);
    if (!view.ok()) return view.status();
    instance.structure_->views.push_back(std::move(*view));
    instance.max_arity_ = std::max(instance.max_arity_, query->arity());
    if (!IsKeyPreserving(*query, database.schema())) {
      instance.all_key_preserving_ = false;
    }
  }
  if (Status s = instance.ValidateWitnesses(); !s.ok()) return s;
  return instance;
}

Result<VseInstance> VseInstance::CreateFromMaterializedViews(
    const Database& database, std::vector<const ConjunctiveQuery*> queries,
    std::vector<View> views) {
  VseInstance instance;
  instance.database_ = &database;
  instance.queries_ = std::move(queries);
  if (instance.queries_.empty()) {
    return Status::InvalidArgument("VseInstance needs at least one query");
  }
  if (instance.queries_.size() != views.size()) {
    return Status::InvalidArgument(
        "CreateFromMaterializedViews needs one view per query, got " +
        std::to_string(views.size()) + " views for " +
        std::to_string(instance.queries_.size()) + " queries");
  }
  instance.structure_->views = std::move(views);
  instance.all_key_preserving_ = true;
  for (const ConjunctiveQuery* query : instance.queries_) {
    if (Status s = query->Validate(database.schema()); !s.ok()) return s;
    instance.max_arity_ = std::max(instance.max_arity_, query->arity());
    if (!IsKeyPreserving(*query, database.schema())) {
      instance.all_key_preserving_ = false;
    }
  }
  if (Status s = instance.ValidateWitnesses(); !s.ok()) return s;
  return instance;
}

Result<VseInstance> VseInstance::CreateByFiltering(
    const VseInstance& previous, const DeletionSet& newly_deleted) {
  VseInstance instance;
  instance.database_ = previous.database_;
  instance.queries_ = previous.queries_;
  instance.max_arity_ = previous.max_arity_;
  instance.all_key_preserving_ = previous.all_key_preserving_;

  // The derived instance's views are Q(D \ (previous mask ∪ newly_deleted));
  // carry the combined mask so ApplyDelta on the result stays consistent.
  instance.structure_->base_mask = previous.structure_->base_mask;
  for (const TupleRef& ref : newly_deleted.Sorted()) {
    instance.structure_->base_mask.Insert(ref);
  }

  for (size_t v = 0; v < previous.view_count(); ++v) {
    const View& old_view = previous.view(v);
    View view(&previous.query(v), previous.database_);
    for (size_t t = 0; t < old_view.size(); ++t) {
      const ViewTuple& tuple = old_view.tuple(t);
      for (const Witness& witness : tuple.witnesses) {
        bool hit = false;
        for (const TupleRef& ref : witness) {
          if (newly_deleted.Contains(ref)) {
            hit = true;
            break;
          }
        }
        if (!hit) view.AddMatch(tuple.values, witness);
      }
    }
    instance.structure_->views.push_back(std::move(view));
  }
  if (Status s = instance.ValidateWitnesses(); !s.ok()) return s;
  return instance;
}

Status VseInstance::ValidateWitnesses() {
  internal::ViewStructure& structure = *structure_;
  structure.multi_witness_tuples = 0;
  const Schema& schema = database_->schema();
  for (size_t v = 0; v < structure.views.size(); ++v) {
    const View& view = structure.views[v];
    const ConjunctiveQuery& query = *queries_[v];
    for (size_t t = 0; t < view.size(); ++t) {
      const ViewTuple& tuple = view.tuple(t);
      // Error prefixes are rendered only on failure: this loop visits every
      // view tuple at load time.
      auto where = [&] {
        return "view " + std::to_string(v) + " tuple " + std::to_string(t);
      };
      // A tuple of the wrong shape (e.g. pasted in from another view) cannot
      // be rendered safely, so check arity before touching the dictionary.
      if (tuple.values.size() != query.arity()) {
        return Status::InvalidArgument(
            where() + " has " + std::to_string(tuple.values.size()) +
            " head values but query '" + query.name() + "' has arity " +
            std::to_string(query.arity()) +
            "; it does not belong to this view");
      }
      auto who = [&] { return where() + " (" + view.RenderTuple(t) + ")"; };
      if (tuple.witnesses.empty()) {
        return Status::InvalidArgument(
            who() +
            " has no witnesses; it could never be deleted or preserved "
            "consistently");
      }
      if (tuple.witnesses.size() > 1) ++structure.multi_witness_tuples;
      for (const Witness& witness : tuple.witnesses) {
        if (witness.empty()) {
          return Status::InvalidArgument(
              who() +
              " has an empty witness; deleting it would be impossible");
        }
        if (witness.size() != query.atoms().size()) {
          return Status::InvalidArgument(
              who() + " has a witness of " + std::to_string(witness.size()) +
              " base tuple(s) for a body of " +
              std::to_string(query.atoms().size()) + " atom(s)");
        }
        for (size_t a = 0; a < witness.size(); ++a) {
          const TupleRef& ref = witness[a];
          // Dangling witnesses: the reference must land inside the database,
          // on the relation the body atom names.
          if (ref.relation >= schema.relation_count()) {
            return Status::InvalidArgument(
                who() + " has a dangling witness: relation id " +
                std::to_string(ref.relation) + " does not exist");
          }
          if (ref.relation != query.atoms()[a].relation) {
            return Status::InvalidArgument(
                who() + " has a witness whose atom " + std::to_string(a) +
                " references relation '" + schema.relation(ref.relation).name +
                "' where the query body has '" +
                schema.relation(query.atoms()[a].relation).name + "'");
          }
          if (ref.row >= database_->relation(ref.relation).row_count()) {
            return Status::InvalidArgument(
                who() + " has a dangling witness: row " +
                std::to_string(ref.row) + " of relation '" +
                schema.relation(ref.relation).name + "' does not exist (" +
                std::to_string(database_->relation(ref.relation).row_count()) +
                " row(s))");
          }
        }
      }
    }
  }
  return Status::Ok();
}

internal::ViewStructure& VseInstance::MutableStructure() {
  if (structure_.use_count() > 1) {
    // Replicas still share this structure; give them their frozen snapshot
    // and mutate a private copy.
    structure_ = std::make_shared<internal::ViewStructure>(*structure_);
  }
  return *structure_;
}

Status VseInstance::ValidateDelta(const Database& database,
                                  const BaseDelta& delta,
                                  const ApplyDeltaOptions& options,
                                  const PlanCore& core) const {
  const Schema& schema = database.schema();
  // Inserts: arity and key uniqueness, against both the stored rows and the
  // earlier inserts of this same delta.
  std::vector<std::vector<Tuple>> batch_keys(schema.relation_count());
  for (size_t i = 0; i < delta.inserts.size(); ++i) {
    const BaseInsert& insert = delta.inserts[i];
    std::string who = "delta insert " + std::to_string(i);
    if (insert.relation >= schema.relation_count()) {
      return Status::InvalidArgument(
          who + " names relation id " + std::to_string(insert.relation) +
          ", which does not exist (" +
          std::to_string(schema.relation_count()) + " relation(s))");
    }
    const RelationSchema& relation_schema = schema.relation(insert.relation);
    if (insert.tuple.size() != relation_schema.arity) {
      return Status::InvalidArgument(
          who + " has " + std::to_string(insert.tuple.size()) +
          " value(s) for relation '" + relation_schema.name + "' of arity " +
          std::to_string(relation_schema.arity));
    }
    const Relation& relation = database.relation(insert.relation);
    Tuple key = relation.KeyOf(insert.tuple);
    if (std::optional<uint32_t> row = relation.FindByKey(key)) {
      bool duplicate = relation.row(*row) == insert.tuple;
      std::string what = duplicate ? " duplicates row "
                                   : " collides on the key of row ";
      std::string masked =
          structure_->base_mask.Contains(TupleRef{insert.relation, *row})
              ? " (logically deleted rows keep their keys occupied)"
              : "";
      return Status::InvalidArgument(who + what + std::to_string(*row) +
                                     " of relation '" + relation_schema.name +
                                     "'" + masked);
    }
    for (const Tuple& prior : batch_keys[insert.relation]) {
      if (prior == key) {
        return Status::InvalidArgument(
            who + " repeats the key of an earlier insert in the same delta "
                  "for relation '" +
            relation_schema.name + "'");
      }
    }
    batch_keys[insert.relation].push_back(std::move(key));
  }
  // Deletes: must name existing, still-live rows of the pre-delta database
  // (a row inserted by this delta has index ≥ the pre-delta row count, so it
  // fails the dangling check by construction).
  for (size_t i = 0; i < delta.deletes.size(); ++i) {
    const TupleRef& ref = delta.deletes[i];
    std::string who = "delta delete " + std::to_string(i);
    if (ref.relation >= schema.relation_count()) {
      return Status::InvalidArgument(
          who + " is dangling: relation id " + std::to_string(ref.relation) +
          " does not exist (" + std::to_string(schema.relation_count()) +
          " relation(s))");
    }
    const Relation& relation = database.relation(ref.relation);
    const std::string& name = schema.relation(ref.relation).name;
    if (ref.row >= relation.row_count()) {
      return Status::InvalidArgument(
          who + " is dangling: row " + std::to_string(ref.row) +
          " of relation '" + name + "' does not exist (" +
          std::to_string(relation.row_count()) + " row(s))");
    }
    if (structure_->base_mask.Contains(ref)) {
      return Status::InvalidArgument(who + ": row " + std::to_string(ref.row) +
                                     " of relation '" + name +
                                     "' is already deleted");
    }
    uint32_t base = options.forbid_witnessed_deletes
                        ? core.FindBase(ref)
                        : CompiledInstance::kNpos;
    if (base != CompiledInstance::kNpos) {
      // An interned base lies in some witness, so its occurrence row is not
      // empty, and its first entry is the first view tuple it kills.
      ViewTupleId vt = TupleOf(core, core.occ_tuple[core.base_occ_first[base]]);
      return Status::InvalidArgument(
          who + ": row " + std::to_string(ref.row) + " of relation '" + name +
          "' still occurs in a witness of view " + std::to_string(vt.view) +
          " tuple " + std::to_string(vt.tuple) + " (" + RenderViewTuple(vt) +
          ")");
    }
  }
  return Status::Ok();
}

Status VseInstance::ApplyDelta(Database& database, const BaseDelta& delta,
                               const ApplyDeltaOptions& options,
                               ApplyDeltaReport* report, ThreadPool* pool) {
  if (&database != database_) {
    return Status::InvalidArgument(
        "ApplyDelta must be given the instance's own database");
  }
  ApplyDeltaReport out;
  if (delta.empty()) {
    if (report != nullptr) *report = out;
    return Status::Ok();
  }
  // The pre-delta core, built first if none is cached: its kill rows answer
  // every "which view tuples use this row" lookup below.
  std::shared_ptr<const PlanCore> old_core = CurrentCore(pool);
  if (Status s = ValidateDelta(database, delta, options, *old_core); !s.ok()) {
    return s;
  }

  internal::ViewStructure& structure = MutableStructure();

  // ---- Deletes: extend the base mask, drop hit witnesses in place. -------
  DeletionSet deleted;
  std::vector<ViewTupleId> affected;
  for (const TupleRef& ref : delta.deletes) {
    if (!deleted.Insert(ref)) continue;  // duplicates collapse
    structure.base_mask.Insert(ref);
    AppendKillRow(*old_core, ref, &affected);
  }
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());

  // Compact each affected tuple's surviving witnesses in order; a tuple
  // left with none is gone and joins the per-view dead lists.
  TupleRemap remap(structure.views.size());
  for (const ViewTupleId& id : affected) {
    std::vector<Witness>& witnesses =
        structure.views[id.view].MutableWitnesses(id.tuple);
    size_t before = witnesses.size();
    witnesses.erase(std::remove_if(witnesses.begin(), witnesses.end(),
                                   [&deleted](const Witness& witness) {
                                     return WitnessHits(witness, deleted);
                                   }),
                    witnesses.end());
    out.witnesses_removed += before - witnesses.size();
    if (before > 1 && witnesses.size() <= 1) {
      --structure.multi_witness_tuples;
    }
    if (witnesses.empty()) {
      remap.MarkDead(id);
      ++out.view_tuples_removed;
    }
  }

  // ---- Compact dead tuples and re-index everything keyed by tuple id. ----
  if (remap.any()) {
    // One view per task: a view's compaction touches only its own tuples
    // and head index.
    ParallelFor(pool, structure.views.size(), [&](size_t v) {
      const std::vector<size_t>& dead = remap.dead(v);
      if (!dead.empty()) structure.views[v].RemoveTuples(dead);
    });
    // ΔV: marks on dead tuples became facts of the base data; survivors
    // shift. Both preserve sortedness (shifts are monotone within a view).
    size_t write = 0;
    for (const ViewTupleId& id : deletion_tuples_) {
      if (remap.IsDead(id)) continue;
      deletion_tuples_[write++] = remap.Shift(id);
    }
    deletion_tuples_.resize(write);
    // Weights follow the same drop-or-shift rule. The map is rebuilt from an
    // unordered walk: insertion order does not affect lookups, so this stays
    // deterministic.
    std::unordered_map<ViewTupleId, double, ViewTupleIdHash> new_weights;
    new_weights.reserve(weights_.size());
    for (auto it = weights_.begin(); it != weights_.end(); ++it) {
      if (remap.IsDead(it->first)) continue;
      new_weights.emplace(remap.Shift(it->first), it->second);
    }
    weights_ = std::move(new_weights);
  }

  // ---- Inserts: append rows, join them against the old rows (no index). ---
  if (!delta.inserts.empty()) {
    std::vector<uint32_t> first_new_row(database.relation_count());
    for (RelationId r = 0; r < database.relation_count(); ++r) {
      first_new_row[r] =
          static_cast<uint32_t>(database.relation(r).row_count());
    }
    for (const BaseInsert& insert : delta.inserts) {
      Result<TupleRef> inserted =
          database.Insert(insert.relation, insert.tuple);
      if (!inserted.ok()) {
        // Unreachable after ValidateDelta; surface loudly instead of
        // silently diverging from the views.
        return Status::Internal("validated insert failed: " +
                                inserted.status().message());
      }
    }
    std::vector<std::pair<Tuple, Witness>> matches;
    for (size_t v = 0; v < structure.views.size(); ++v) {
      matches.clear();
      if (Status s = internal::CollectDeltaMatches(
              database, *queries_[v], structure.base_mask, first_new_row,
              &matches);
          !s.ok()) {
        return s;
      }
      View& view = structure.views[v];
      for (std::pair<Tuple, Witness>& match : matches) {
        std::optional<size_t> existing = view.Find(match.first);
        size_t witnesses_before =
            existing.has_value() ? view.tuple(*existing).witnesses.size() : 0;
        size_t index = view.AddMatch(match.first, std::move(match.second));
        size_t witnesses_after = view.tuple(index).witnesses.size();
        if (witnesses_after == witnesses_before) continue;  // deduplicated
        ++out.witnesses_added;
        if (!existing.has_value()) ++out.view_tuples_added;
        if (witnesses_before == 1 && witnesses_after == 2) {
          ++structure.multi_witness_tuples;
        }
      }
    }
  }

  ++structure.epoch;

  // ---- Plan maintenance: drop the core if any witness changed. ----------
  // BuildCore is the core's only writer, so the next compiled() rebuilds it.
  // A delta that changed no witness (inserts that join nothing, deletes of
  // rows outside every witness) leaves the core exact: keep it. A dropped
  // core is parked for that build to reuse (see VseInstanceCaches); it is
  // never null here, since the delta read its kill rows.
  if (out.witnesses_removed + out.witnesses_added == 0) {
    InvalidateOverlayCaches();
  } else {
    std::lock_guard<std::mutex> lock(caches_->mu);
    caches_->compiled.reset();
    caches_->retired.reset();
    caches_->retired_core = std::move(caches_->plan_core);
    ++caches_->plan_stats.core_patch_fallbacks;
  }

  if (report != nullptr) *report = out;
  return Status::Ok();
}

Status VseInstance::MarkForDeletion(const ViewTupleId& id) {
  if (id.view >= view_count() || id.tuple >= view(id.view).size()) {
    return Status::OutOfRange("view tuple id out of range");
  }
  // The list is kept sorted; membership and position come from one binary
  // search (no shadow hash set to maintain).
  auto it =
      std::lower_bound(deletion_tuples_.begin(), deletion_tuples_.end(), id);
  if (it == deletion_tuples_.end() || !(*it == id)) {
    deletion_tuples_.insert(it, id);
    InvalidateOverlayCaches();
  }
  return Status::Ok();
}

Status VseInstance::ResetDeletions(const std::vector<ViewTupleId>& delta_v) {
  for (const ViewTupleId& id : delta_v) {
    if (id.view >= view_count() || id.tuple >= view(id.view).size()) {
      return Status::OutOfRange("view tuple id out of range");
    }
  }
  // Normalize into the existing buffer — capacity carries over between
  // requests, so steady-state batched serving allocates nothing here.
  deletion_tuples_.assign(delta_v.begin(), delta_v.end());
  std::sort(deletion_tuples_.begin(), deletion_tuples_.end());
  deletion_tuples_.erase(
      std::unique(deletion_tuples_.begin(), deletion_tuples_.end()),
      deletion_tuples_.end());
  InvalidateOverlayCaches();
  return Status::Ok();
}

Status VseInstance::MarkForDeletionByValues(
    size_t view_index, const std::vector<std::string>& values) {
  if (view_index >= view_count()) {
    return Status::OutOfRange("view index out of range");
  }
  Tuple tuple;
  tuple.reserve(values.size());
  const ValueDictionary& dict = database_->dict();
  for (const std::string& text : values) {
    std::optional<ValueId> id = dict.Find(text);
    if (!id.has_value()) {
      // A constant never interned cannot identify an existing view tuple.
      return Status::NotFound("unknown constant '" + text + "'");
    }
    tuple.push_back(*id);
  }
  std::optional<size_t> index = view(view_index).Find(tuple);
  if (!index.has_value()) {
    return Status::NotFound("no view tuple with the given values in view " +
                            std::to_string(view_index));
  }
  return MarkForDeletion(ViewTupleId{view_index, *index});
}

Status VseInstance::SetWeight(const ViewTupleId& id, double weight) {
  if (id.view >= view_count() || id.tuple >= view(id.view).size()) {
    return Status::OutOfRange("view tuple id out of range");
  }
  // Written so that NaN fails too: every comparison with NaN is false.
  // -0.0 passes. +inf does not: the solvers rank deletions by summed
  // weight, and sums of infinities rank nothing.
  if (!(weight >= 0.0 && weight < std::numeric_limits<double>::infinity())) {
    return Status::InvalidArgument("weight of " + RenderViewTuple(id) +
                                   " must be a finite non-negative number, "
                                   "got " + std::to_string(weight));
  }
  weights_[id] = weight;
  // Weights live in the plan core, which only BuildCore writes: drop the
  // plan, the retired plan and the core, and let the next compiled()
  // rebuild, as ApplyDelta does. Replicas and in-flight solvers keep the
  // core they hold. A second reweight before that rebuild keeps the core
  // the first one parked.
  std::lock_guard<std::mutex> lock(caches_->mu);
  caches_->compiled.reset();
  caches_->retired.reset();
  if (caches_->plan_core != nullptr) {
    caches_->retired_core = std::move(caches_->plan_core);
  }
  return Status::Ok();
}

void VseInstance::InvalidateOverlayCaches() {
  std::lock_guard<std::mutex> lock(caches_->mu);
  // The ΔV-independent plan core survives; park the dropped plan so the
  // next compiled() can recycle its overlay buffers.
  if (caches_->compiled != nullptr) {
    caches_->retired = std::move(caches_->compiled);
  }
  caches_->compiled.reset();
}

PlanBuildStats VseInstance::plan_stats() const {
  std::lock_guard<std::mutex> lock(caches_->mu);
  return caches_->plan_stats;
}

VseInstance VseInstance::Replicate() const {
  VseInstance replica;
  replica.database_ = database_;
  replica.queries_ = queries_;
  replica.structure_ = structure_;  // copy-on-write shared
  replica.all_key_preserving_ = all_key_preserving_;
  replica.max_arity_ = max_arity_;
  replica.deletion_tuples_ = deletion_tuples_;
  replica.weights_ = weights_;
  // Seed the replica's fresh cache with the shared plan core (and current
  // plan, if built) so the replica never re-interns the structure; its
  // plan_stats start at zero, counting only the replica's own builds.
  std::lock_guard<std::mutex> lock(caches_->mu);
  replica.caches_->plan_core = caches_->plan_core;
  replica.caches_->compiled = caches_->compiled;
  return replica;
}

std::vector<const View*> VseInstance::ViewPointers() const {
  std::vector<const View*> out;
  out.reserve(view_count());
  for (const View& view : structure_->views) out.push_back(&view);
  return out;
}

bool VseInstance::IsMarkedForDeletion(const ViewTupleId& id) const {
  return std::binary_search(deletion_tuples_.begin(), deletion_tuples_.end(),
                            id);
}

double VseInstance::weight(const ViewTupleId& id) const {
  auto it = weights_.find(id);
  return it == weights_.end() ? 1.0 : it->second;
}

size_t VseInstance::TotalViewTuples() const {
  size_t n = 0;
  for (const View& view : structure_->views) n += view.size();
  return n;
}

std::vector<TupleRef> VseInstance::CandidateTuples() const {
  std::unordered_set<TupleRef, TupleRefHash> seen;
  for (const ViewTupleId& id : deletion_tuples_) {
    for (const Witness& witness : view_tuple(id).witnesses) {
      for (const TupleRef& ref : witness) seen.insert(ref);
    }
  }
  std::vector<TupleRef> out(seen.begin(), seen.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::shared_ptr<const PlanCore> VseInstance::CurrentCore(
    ThreadPool* pool) const {
  {
    std::lock_guard<std::mutex> lock(caches_->mu);
    if (caches_->plan_core != nullptr) return caches_->plan_core;
  }
  return compiled(pool)->core();
}

std::vector<ViewTupleId> VseInstance::KilledBy(const TupleRef& ref) const {
  std::vector<ViewTupleId> killed;
  AppendKillRow(*CurrentCore(), ref, &killed);
  return killed;
}

}  // namespace delprop
