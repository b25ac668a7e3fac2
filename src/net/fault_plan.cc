#include <limits>
#include <string>

#include "net/scheduler.h"

// FaultPlan's names and text form (declared in net/scheduler.h). They
// live apart from scheduler.cc so that a binary that only runs schedules
// does not link the renderers.

namespace lamp {

std::string_view DeliveryDisciplineName(DeliveryDiscipline discipline) {
  switch (discipline) {
    case DeliveryDiscipline::kUniform:
      return "uniform";
    case DeliveryDiscipline::kOldestFirst:
      return "oldest-first";
    case DeliveryDiscipline::kNewestFirst:
      return "newest-first";
    case DeliveryDiscipline::kStarve:
      return "starve";
  }
  return "unknown";
}

std::string_view FaultEventKindName(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kDropNext:
      return "drop";
    case FaultEvent::Kind::kDuplicateNext:
      return "dup";
    case FaultEvent::Kind::kCrash:
      return "crash";
    case FaultEvent::Kind::kRestart:
      return "restart";
    case FaultEvent::Kind::kPartition:
      return "partition";
    case FaultEvent::Kind::kHeal:
      return "heal";
  }
  return "unknown";
}

namespace {

std::string EventToString(const FaultEvent& e) {
  std::string out;
  out.reserve(48);
  out.append(FaultEventKindName(e.kind));
  switch (e.kind) {
    case FaultEvent::Kind::kCrash:
      out.append("(n");
      out.append(std::to_string(e.node));
      out.append(e.durable ? ",durable)" : ",volatile)");
      break;
    case FaultEvent::Kind::kRestart:
      out.append("(n");
      out.append(std::to_string(e.node));
      out.push_back(')');
      break;
    case FaultEvent::Kind::kPartition: {
      out.append("({");
      for (std::size_t i = 0; i < e.group.size(); ++i) {
        if (i > 0) out.push_back(',');
        out.append(std::to_string(e.group[i]));
      }
      out.append("})");
      break;
    }
    default:
      break;
  }
  if (e.step == std::numeric_limits<std::size_t>::max()) {
    out.append("@quiescence");
  } else {
    out.push_back('@');
    out.append(std::to_string(e.step));
  }
  return out;
}

}  // namespace

std::string FaultPlan::ToString() const {
  std::string out;
  out.reserve(64);
  out.append("discipline=");
  out.append(DeliveryDisciplineName(discipline));
  if (discipline == DeliveryDiscipline::kStarve) {
    out.append("(n");
    out.append(std::to_string(starve_target));
    out.push_back(')');
  }
  out.append(" events=[");
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out.push_back(' ');
    out.append(EventToString(events[i]));
  }
  out.push_back(']');
  return out;
}

}  // namespace lamp
