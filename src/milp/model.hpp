// Mixed-integer linear program model builder.
//
// The paper's Decision Controller states Eq. 8-13 as a PuLP/GLPK program.
// This builder states the same program for the tests: instances.hpp builds
// the scheduler's chunk models with it, and milp::solve (oracle.hpp) solves
// them as the reference for sched::transport_assign.  Convention: minimize
// c^T x subject to row constraints and variable bounds; each variable is
// continuous or binary.
#pragma once

#include <limits>
#include <vector>

namespace ww::milp {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class VarType { Continuous, Binary };
enum class Sense { LessEqual, GreaterEqual, Equal };

/// One nonzero of a constraint row.
struct Term {
  int var = -1;
  double coeff = 0.0;
};

struct Variable {
  double lower = 0.0;
  double upper = kInfinity;
  VarType type = VarType::Continuous;
  double objective = 0.0;
};

struct Constraint {
  std::vector<Term> terms;
  Sense sense = Sense::LessEqual;
  double rhs = 0.0;
};

class Model {
 public:
  /// Returns the new variable's index.  Binary forces bounds to [0, 1].
  int add_variable(double lower, double upper,
                   VarType type = VarType::Continuous, double objective = 0.0);
  int add_continuous(double lower, double upper, double objective = 0.0) {
    return add_variable(lower, upper, VarType::Continuous, objective);
  }
  int add_binary(double objective = 0.0) {
    return add_variable(0.0, 1.0, VarType::Binary, objective);
  }

  /// Pre-sizes the variable/constraint vectors for a model of known shape.
  void reserve(int variables, int constraints);

  /// Tightens/replaces a variable's bounds (e.g. fixing a binary to 0).
  void set_variable_bounds(int var, double lower, double upper);

  /// Returns the new constraint's index.  Duplicate variables within `terms`
  /// are merged and exact zeros dropped; the stored row is sorted by
  /// variable index.
  int add_constraint(std::vector<Term> terms, Sense sense, double rhs);

  [[nodiscard]] int num_variables() const noexcept {
    return static_cast<int>(variables_.size());
  }
  [[nodiscard]] int num_constraints() const noexcept {
    return static_cast<int>(constraints_.size());
  }
  [[nodiscard]] const Variable& variable(int i) const {
    return variables_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] const Constraint& constraint(int i) const {
    return constraints_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] const std::vector<Variable>& variables() const noexcept {
    return variables_;
  }
  [[nodiscard]] const std::vector<Constraint>& constraints() const noexcept {
    return constraints_;
  }

  /// Objective value of an assignment (no feasibility check).
  [[nodiscard]] double objective_value(const std::vector<double>& x) const;

  /// Max constraint/bound violation of an assignment; 0 means feasible.
  [[nodiscard]] double max_violation(const std::vector<double>& x) const;

 private:
  std::vector<Variable> variables_;
  std::vector<Constraint> constraints_;
};

}  // namespace ww::milp
