#include "instance_text.h"

#include <cstdio>
#include <cstdlib>
#include <map>

#include "query/evaluator.h"
#include "query/parser.h"
#include "query/view.h"
#include "tool/csv.h"

namespace perfbench {

using delprop::Database;
using delprop::Result;
using delprop::Status;
using delprop::ViewTupleId;

size_t InstanceText::bytes() const {
  size_t total = delta_v.size() + weights.size();
  for (const auto& [name, csv] : relations) total += name.size() + csv.size();
  for (const std::string& query : queries) total += query.size();
  return total;
}

namespace {

void AppendField(std::string* out, const std::string& field) {
  bool quote = field.empty() || field.front() == ' ' || field.back() == ' ' ||
               field.find_first_of(",\"\r\n\t") != std::string::npos;
  if (!quote) {
    *out += field;
    return;
  }
  *out += '"';
  for (char c : field) {
    if (c == '"') *out += '"';
    *out += c;
  }
  *out += '"';
}

void AppendViewTuple(std::string* out, const delprop::VseInstance& instance,
                     const ViewTupleId& id) {
  const delprop::ValueDictionary& dict = instance.database().dict();
  AppendField(out, instance.query(id.view).name());
  for (delprop::ValueId value : instance.view_tuple(id).values) {
    *out += ',';
    AppendField(out, dict.Text(value));
  }
}

}  // namespace

InstanceText RenderInstance(const delprop::VseInstance& instance) {
  const Database& db = instance.database();
  const delprop::Schema& schema = db.schema();
  InstanceText text;
  for (delprop::RelationId rel = 0; rel < schema.relation_count(); ++rel) {
    const delprop::RelationSchema& r = schema.relation(rel);
    std::string csv;
    for (size_t p = 0; p < r.arity; ++p) {
      if (p > 0) csv += ',';
      if (r.attribute_names.empty()) {
        csv += 'a';
        csv += std::to_string(p);
      } else {
        csv += r.attribute_names[p];
      }
      if (r.IsKeyPosition(p)) csv += '*';
    }
    csv += '\n';
    const delprop::Relation& relation = db.relation(rel);
    for (uint32_t row = 0; row < relation.row_count(); ++row) {
      const delprop::Tuple& tuple = relation.row(row);
      for (size_t p = 0; p < tuple.size(); ++p) {
        if (p > 0) csv += ',';
        AppendField(&csv, db.dict().Text(tuple[p]));
      }
      csv += '\n';
    }
    text.relations.emplace_back(r.name, std::move(csv));
  }
  for (size_t q = 0; q < instance.view_count(); ++q) {
    text.queries.push_back(instance.query(q).ToString(schema, db.dict()));
  }
  for (const ViewTupleId& id : instance.deletion_tuples()) {
    AppendViewTuple(&text.delta_v, instance, id);
    text.delta_v += '\n';
  }
  for (size_t v = 0; v < instance.view_count(); ++v) {
    for (size_t t = 0; t < instance.view(v).size(); ++t) {
      ViewTupleId id{v, t};
      double weight = instance.weight(id);
      if (weight == 1.0) continue;
      AppendViewTuple(&text.weights, instance, id);
      char number[40];
      std::snprintf(number, sizeof(number), ",%.17g\n", weight);
      text.weights += number;
    }
  }
  return text;
}

void LoadCounts::Add(const LoadCounts& other) {
  rows += other.rows;
  rows_scanned += other.rows_scanned;
  matches += other.matches;
  indexes_built += other.indexes_built;
  view_tuples += other.view_tuples;
}

namespace {

// Applies the ΔV and weight lines (CSV: view name, head values[, weight]).
Status MarkFromText(const InstanceText& text, LoadedInstance& loaded) {
  std::map<std::string, size_t> view_of;
  for (size_t v = 0; v < loaded.queries.size(); ++v) {
    view_of[loaded.queries[v]->name()] = v;
  }
  auto for_each_line = [&](const std::string& block, bool weighted,
                           auto&& apply) -> Status {
    size_t begin = 0;
    while (begin < block.size()) {
      size_t end = block.find('\n', begin);
      if (end == std::string::npos) end = block.size();
      Result<std::vector<std::string>> fields = delprop::ParseCsvLine(
          std::string_view(block).substr(begin, end - begin));
      begin = end + 1;
      if (!fields.ok()) return fields.status();
      if (fields->size() < (weighted ? 3u : 2u)) {
        return Status::InvalidArgument("short ΔV/weight line");
      }
      auto view = view_of.find(fields->front());
      if (view == view_of.end()) {
        return Status::NotFound("unknown view " + fields->front());
      }
      std::vector<std::string> values(fields->begin() + 1, fields->end());
      double weight = 1.0;
      if (weighted) {
        weight = std::strtod(values.back().c_str(), nullptr);
        values.pop_back();
      }
      if (Status s = apply(view->second, values, weight); !s.ok()) return s;
    }
    return Status::Ok();
  };
  delprop::VseInstance& instance = *loaded.instance;
  if (Status s = for_each_line(
          text.delta_v, false,
          [&](size_t view, const std::vector<std::string>& values, double) {
            return instance.MarkForDeletionByValues(view, values);
          });
      !s.ok()) {
    return s;
  }
  return for_each_line(
      text.weights, true,
      [&](size_t view, const std::vector<std::string>& values,
          double weight) -> Status {
        delprop::Tuple tuple;
        for (const std::string& value : values) {
          std::optional<delprop::ValueId> id =
              loaded.database->dict().Find(value);
          if (!id.has_value()) return Status::NotFound("weight value " + value);
          tuple.push_back(*id);
        }
        std::optional<size_t> index = instance.view(view).Find(tuple);
        if (!index.has_value()) return Status::NotFound("weighted tuple");
        return instance.SetWeight(ViewTupleId{view, *index}, weight);
      });
}

}  // namespace

Result<LoadedInstance> LoadInstance(const InstanceText& text, Tracer* tracer,
                                    LoadCounts* counts) {
  LoadedInstance loaded;
  loaded.database = std::make_unique<Database>();
  Database& db = *loaded.database;
  LoadCounts local;

  for (const auto& [name, csv] : text.relations) {
    delprop::CsvLoadReport report;
    Result<delprop::RelationId> rel = Traced(tracer, "tool.load", [&] {
      return delprop::LoadCsvRelation(db, name, csv, {}, &report);
    });
    if (!rel.ok()) return rel.status();
    local.rows += report.rows_inserted;
  }
  for (const std::string& query_text : text.queries) {
    Result<delprop::ConjunctiveQuery> query =
        Traced(tracer, "query.parse", [&] {
          return delprop::ParseQuery(query_text, db.schema(), db.dict());
        });
    if (!query.ok()) return query.status();
    loaded.queries.push_back(
        std::make_unique<delprop::ConjunctiveQuery>(std::move(*query)));
  }

  std::vector<delprop::View> views;
  std::vector<const delprop::ConjunctiveQuery*> query_ptrs;
  for (const auto& query : loaded.queries) {
    delprop::EvalStats stats;
    delprop::EvalOptions options;
    options.stats = &stats;
    Result<delprop::View> view = Traced(tracer, "query.evaluate", [&] {
      return delprop::Evaluate(db, *query, options);
    });
    if (!view.ok()) return view.status();
    local.rows_scanned += stats.rows_scanned;
    local.matches += stats.matches;
    local.indexes_built += stats.indexes_built;
    local.view_tuples += view->size();
    views.push_back(std::move(*view));
    query_ptrs.push_back(query.get());
  }

  Result<delprop::VseInstance> instance = Traced(tracer, "dp.create", [&] {
    return delprop::VseInstance::CreateFromMaterializedViews(
        db, query_ptrs, std::move(views));
  });
  if (!instance.ok()) return instance.status();
  loaded.instance =
      std::make_unique<delprop::VseInstance>(std::move(*instance));

  if (!text.delta_v.empty() || !text.weights.empty()) {
    Status marked =
        Traced(tracer, "dp.mark", [&] { return MarkFromText(text, loaded); });
    if (!marked.ok()) return marked;
  }
  Traced(tracer, "plan.compile",
         [&] { return loaded.instance->compiled(); });
  if (counts != nullptr) counts->Add(local);
  return loaded;
}

}  // namespace perfbench
