#ifndef DITA_SQL_ENGINE_H_
#define DITA_SQL_ENGINE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/engine.h"
#include "sql/parser.h"
#include "workload/dataset.h"

namespace dita {

/// Tabular result of a SQL statement. Trajectory ids are returned as rows;
/// metadata statements return string rows.
struct SqlResult {
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
  /// Virtual cluster time consumed by the statement (cost-model makespan).
  double seconds = 0.0;

  std::string ToString(size_t max_rows = 20) const;
};

/// The SQL front-end: a catalog of named trajectory tables, per-table DITA
/// engines (created by CREATE INDEX, or on demand), and an executor for the
/// parsed statements. Mirrors the paper's Spark SQL integration at the
/// interface level (§3).
class SqlEngine {
 public:
  SqlEngine(std::shared_ptr<Cluster> cluster, const DitaConfig& default_config);

  /// Registers (or replaces) a table.
  Status RegisterTable(const std::string& name, Dataset data);

  /// Binds a named query trajectory usable as `@name` in WHERE clauses;
  /// InvalidArgument when it fails ValidateTrajectory.
  Status BindTrajectory(const std::string& name, Trajectory trajectory);

  /// Parses and executes one statement.
  Result<SqlResult> Execute(const std::string& sql);

  std::vector<std::string> TableNames() const;

 private:
  struct Table {
    Dataset data;
    /// Engines keyed by distance type: the trie layout is shared logic but
    /// each engine pins one similarity function, as DitaConfig does.
    std::map<DistanceType, std::shared_ptr<DitaEngine>> engines;
  };

  /// Upper-cased lookup (SQL identifiers are case-insensitive).
  Result<Table*> FindTable(const std::string& name);

  /// Materializes a literal or bound-parameter query trajectory.
  Result<Trajectory> ResolveQuery(
      const std::variant<TrajectoryLiteral, TrajectoryParam>& q) const;

  /// Returns the table's engine for `distance`, building the index if this
  /// is the first use (CREATE INDEX builds the default one eagerly).
  Result<std::shared_ptr<DitaEngine>> EngineFor(Table* table,
                                                DistanceType distance);

  std::shared_ptr<Cluster> cluster_;
  DitaConfig default_config_;
  std::map<std::string, Table> tables_;          // key: upper-cased name
  std::map<std::string, Trajectory> parameters_;  // key: upper-cased name
};

}  // namespace dita

#endif  // DITA_SQL_ENGINE_H_
