#include "mcfs/core/validate.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <utility>

namespace mcfs {

std::string ComponentDiagnosis::ToString() const {
  std::ostringstream out;
  out << "component " << component << ": " << customers << " customers, "
      << num_facilities << " facilities with total capacity "
      << capacity_sum;
  if (min_facilities_needed < 0) {
    out << " (short by " << customers - capacity_sum << ")";
  } else {
    out << " (needs " << min_facilities_needed << " facilities)";
  }
  return out.str();
}

std::string InstanceDiagnosis::ToString() const {
  std::ostringstream out;
  out << status.ToString();
  for (const std::string& problem : problems) out << "\n  " << problem;
  for (const ComponentDiagnosis& c : infeasible_components) {
    out << "\n  " << c.ToString();
  }
  out << "\n  demand " << total_demand << ", capacity " << total_capacity
      << ", facilities required " << required_facilities;
  return out.str();
}

CapacityAccounting AccountCapacity(const McfsInstance& instance,
                                   const ComponentLabeling& components) {
  const int num_components = components.num_components;
  std::vector<int64_t> customers_in(num_components, 0);
  for (const NodeId c : instance.customers) {
    customers_in[components.component_of[c]]++;
  }
  // Capacities grouped by component (a counting sort): component g's
  // facilities hold caps[begin[g], begin[g + 1]).
  std::vector<int> begin(num_components + 1, 0);
  for (const NodeId node : instance.facility_nodes) {
    begin[components.component_of[node] + 1]++;
  }
  for (int g = 0; g < num_components; ++g) begin[g + 1] += begin[g];
  std::vector<int> caps(instance.facility_nodes.size());
  std::vector<int> next(begin.begin(), begin.end() - 1);
  for (int j = 0; j < instance.l(); ++j) {
    caps[next[components.component_of[instance.facility_nodes[j]]]++] =
        instance.capacities[j];
  }
  CapacityAccounting accounting;
  for (int g = 0; g < num_components; ++g) {
    if (customers_in[g] == 0) continue;
    const auto first = caps.begin() + begin[g];
    auto last = caps.begin() + begin[g + 1];
    ComponentDiagnosis cd;
    cd.component = g;
    cd.customers = customers_in[g];
    cd.num_facilities = begin[g + 1] - begin[g];
    cd.capacity_sum = std::accumulate(first, last, int64_t{0});
    // Largest capacities first until the demand is met: a max-heap pops
    // only the facilities the count needs instead of sorting them all.
    std::make_heap(first, last);
    int64_t remaining = cd.customers;
    while (remaining > 0 && first != last) {
      std::pop_heap(first, last--);
      remaining -= *last;
      ++cd.min_facilities_needed;
    }
    if (remaining > 0) {
      cd.min_facilities_needed = -1;
      accounting.infeasible_components.push_back(cd);
    } else {
      accounting.required_facilities += cd.min_facilities_needed;
    }
  }
  return accounting;
}

InstanceDiagnosis DiagnoseInstance(const McfsInstance& instance,
                                   const ComponentLabeling* components) {
  InstanceDiagnosis diagnosis;
  diagnosis.total_demand = instance.m();

  // --- Structural checks (kInvalidInput). Collect every defect so a
  // caller sees the full list, not just the first.
  std::vector<std::string>& problems = diagnosis.problems;
  if (instance.graph == nullptr) {
    problems.push_back("instance has no graph attached");
  }
  if (instance.k < 0) {
    problems.push_back("negative facility budget k = " +
                       std::to_string(instance.k));
  }
  if (instance.capacities.size() != instance.facility_nodes.size()) {
    problems.push_back(
        std::to_string(instance.facility_nodes.size()) +
        " facility nodes but " + std::to_string(instance.capacities.size()) +
        " capacities");
  }
  const int num_nodes =
      instance.graph == nullptr ? 0 : instance.graph->NumNodes();
  for (int i = 0; i < instance.m(); ++i) {
    const NodeId c = instance.customers[i];
    if (c < 0 || c >= num_nodes) {
      problems.push_back("customer " + std::to_string(i) + " at node " +
                         std::to_string(c) + " out of range [0, " +
                         std::to_string(num_nodes) + ")");
    }
  }
  // A node bitmap, not a hash set: the solver service validates every
  // request, and l hash inserts cost more than an n-byte clear there.
  std::vector<uint8_t> seen_facility_node(num_nodes, 0);
  for (int j = 0; j < instance.l(); ++j) {
    const NodeId node = instance.facility_nodes[j];
    if (node < 0 || node >= num_nodes) {
      problems.push_back("facility " + std::to_string(j) + " at node " +
                         std::to_string(node) + " out of range [0, " +
                         std::to_string(num_nodes) + ")");
    } else if (seen_facility_node[node] != 0) {
      problems.push_back("duplicate facility node " + std::to_string(node) +
                         " (facility " + std::to_string(j) + ")");
    } else {
      seen_facility_node[node] = 1;
    }
    if (j < static_cast<int>(instance.capacities.size()) &&
        instance.capacities[j] < 0) {
      problems.push_back("facility " + std::to_string(j) +
                         " has negative capacity " +
                         std::to_string(instance.capacities[j]));
    }
  }
  if (!problems.empty()) {
    diagnosis.status = InvalidInputError(
        std::to_string(problems.size()) +
        " structural problem(s); first: " + problems.front());
    return diagnosis;
  }
  for (const int c : instance.capacities) diagnosis.total_capacity += c;

  // --- Feasibility (kInfeasible): the Theorem-3 accounting, with the
  // per-component evidence kept.
  ComponentLabeling computed;
  if (components == nullptr) {
    computed = ConnectedComponents(*instance.graph);
    components = &computed;
  }
  CapacityAccounting accounting = AccountCapacity(instance, *components);
  diagnosis.infeasible_components =
      std::move(accounting.infeasible_components);
  diagnosis.required_facilities = accounting.required_facilities;
  if (!diagnosis.infeasible_components.empty()) {
    std::ostringstream msg;
    msg << diagnosis.infeasible_components.size()
        << " component(s) lack capacity for their customers; first: "
        << diagnosis.infeasible_components.front().ToString();
    diagnosis.status = InfeasibleError(msg.str());
    return diagnosis;
  }
  if (diagnosis.required_facilities > instance.k) {
    std::ostringstream msg;
    msg << "covering every component needs at least "
        << diagnosis.required_facilities << " facilities, budget k = "
        << instance.k;
    diagnosis.status = InfeasibleError(msg.str());
    return diagnosis;
  }
  diagnosis.status = OkStatus();
  return diagnosis;
}

Status ValidateInstance(const McfsInstance& instance) {
  return DiagnoseInstance(instance).status;
}

}  // namespace mcfs
