//===- ChromeTrace.cpp - Trace and metrics exporters -----------------------===//

#include "telemetry/ChromeTrace.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>

using namespace parcae::telemetry;

//===----------------------------------------------------------------------===//
// JSON writer
//===----------------------------------------------------------------------===//

namespace {

void escapeInto(std::string &Out, const std::string &S) {
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
}

void appendNum(std::string &Out, double V) {
  if (!std::isfinite(V)) {
    Out += "0";
    return;
  }
  char Buf[40];
  // %.17g round-trips doubles; trim the common integral case for size.
  if (V == std::floor(V) && std::fabs(V) < 1e15)
    std::snprintf(Buf, sizeof(Buf), "%.0f", V);
  else
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  Out += Buf;
}

void appendArgs(std::string &Out, const std::vector<TraceArg> &Args) {
  Out += "\"args\":{";
  for (std::size_t I = 0; I < Args.size(); ++I) {
    if (I)
      Out += ",";
    Out += "\"";
    escapeInto(Out, Args[I].Key);
    Out += "\":";
    if (Args[I].IsNum) {
      appendNum(Out, Args[I].Num);
    } else {
      Out += "\"";
      escapeInto(Out, Args[I].Str);
      Out += "\"";
    }
  }
  Out += "}";
}

void appendCommon(std::string &Out, const char *Name, const char *Ph,
                  double TsUs, std::uint32_t Pid, std::uint32_t Tid) {
  Out += "{\"name\":\"";
  escapeInto(Out, Name);
  Out += "\",\"ph\":\"";
  Out += Ph;
  Out += "\",\"ts\":";
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "%.3f", TsUs);
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf), ",\"pid\":%u,\"tid\":%u", Pid, Tid);
  Out += Buf;
}

} // namespace

std::string parcae::telemetry::toChromeTraceJson(const TraceRecorder &R) {
  std::string Out;
  Out.reserve(128 * R.size() + 4096);
  Out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool First = true;
  auto Sep = [&] {
    if (!First)
      Out += ",\n";
    First = false;
  };

  // Metadata: process and thread names.
  const auto &Procs = R.processes();
  for (std::uint32_t Pid = 0; Pid < Procs.size(); ++Pid) {
    Sep();
    appendCommon(Out, "process_name", "M", 0.0, Pid, 0);
    Out += ",\"args\":{\"name\":\"";
    escapeInto(Out, Procs[Pid]);
    Out += "\"}}";
  }
  for (const auto &T : R.threadNames()) {
    Sep();
    appendCommon(Out, "thread_name", "M", 0.0, T.first.first, T.first.second);
    Out += ",\"args\":{\"name\":\"";
    escapeInto(Out, T.second);
    Out += "\"}}";
  }

  for (const TraceEvent &E : R.events()) {
    Sep();
    const char Ph[2] = {static_cast<char>(E.Ph), 0};
    appendCommon(Out, E.Name.c_str(), Ph,
                 static_cast<double>(E.Ts) / 1000.0, E.Pid, E.Tid);
    Out += ",\"cat\":\"";
    escapeInto(Out, E.Cat);
    Out += "\"";
    if (E.Ph == Phase::Instant)
      Out += ",\"s\":\"t\""; // instant scope: thread
    if (!E.Args.empty() || E.Ph == Phase::Counter) {
      Out += ",";
      appendArgs(Out, E.Args);
    }
    Out += "}";
  }
  Out += "\n]";
  if (R.dropped()) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), ",\"droppedEvents\":%llu",
                  static_cast<unsigned long long>(R.dropped()));
    Out += Buf;
  }
  Out += "}\n";
  return Out;
}

bool parcae::telemetry::writeChromeTrace(const TraceRecorder &R,
                                         const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::string Json = toChromeTraceJson(R);
  bool Ok = std::fwrite(Json.data(), 1, Json.size(), F) == Json.size();
  Ok &= std::fclose(F) == 0;
  return Ok;
}

//===----------------------------------------------------------------------===//
// JSON parser
//===----------------------------------------------------------------------===//

namespace {

class Parser {
public:
  Parser(const std::string &Text, std::string *Err) : S(Text), Err(Err) {}

  bool run(json::Value &Out) {
    skipWs();
    if (!value(Out))
      return false;
    skipWs();
    if (Pos != S.size())
      return fail("trailing characters after top-level value");
    return true;
  }

private:
  bool fail(const std::string &Msg) {
    if (Err && Err->empty())
      *Err = Msg + " (at byte " + std::to_string(Pos) + ")";
    return false;
  }

  void skipWs() {
    while (Pos < S.size() && std::isspace(static_cast<unsigned char>(S[Pos])))
      ++Pos;
  }

  bool consume(char C) {
    if (Pos < S.size() && S[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool literal(const char *Lit) {
    std::size_t N = std::strlen(Lit);
    if (S.compare(Pos, N, Lit) != 0)
      return fail(std::string("expected '") + Lit + "'");
    Pos += N;
    return true;
  }

  bool string(std::string &Out) {
    if (!consume('"'))
      return fail("expected string");
    while (Pos < S.size()) {
      char C = S[Pos++];
      if (C == '"')
        return true;
      if (C == '\\') {
        if (Pos >= S.size())
          return fail("truncated escape");
        char E = S[Pos++];
        switch (E) {
        case '"': Out += '"'; break;
        case '\\': Out += '\\'; break;
        case '/': Out += '/'; break;
        case 'b': Out += '\b'; break;
        case 'f': Out += '\f'; break;
        case 'n': Out += '\n'; break;
        case 'r': Out += '\r'; break;
        case 't': Out += '\t'; break;
        case 'u': {
          if (Pos + 4 > S.size())
            return fail("truncated \\u escape");
          unsigned Code = 0;
          for (int I = 0; I < 4; ++I) {
            char H = S[Pos++];
            Code <<= 4;
            if (H >= '0' && H <= '9')
              Code += static_cast<unsigned>(H - '0');
            else if (H >= 'a' && H <= 'f')
              Code += static_cast<unsigned>(H - 'a' + 10);
            else if (H >= 'A' && H <= 'F')
              Code += static_cast<unsigned>(H - 'A' + 10);
            else
              return fail("bad \\u escape");
          }
          // Keep it simple: encode as UTF-8 (no surrogate pairing).
          if (Code < 0x80) {
            Out += static_cast<char>(Code);
          } else if (Code < 0x800) {
            Out += static_cast<char>(0xC0 | (Code >> 6));
            Out += static_cast<char>(0x80 | (Code & 0x3F));
          } else {
            Out += static_cast<char>(0xE0 | (Code >> 12));
            Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
            Out += static_cast<char>(0x80 | (Code & 0x3F));
          }
          break;
        }
        default:
          return fail("unknown escape");
        }
      } else {
        Out += C;
      }
    }
    return fail("unterminated string");
  }

  bool number(double &Out) {
    std::size_t Start = Pos;
    if (Pos < S.size() && (S[Pos] == '-' || S[Pos] == '+'))
      ++Pos;
    bool Digits = false;
    auto digits = [&] {
      while (Pos < S.size() && std::isdigit(static_cast<unsigned char>(S[Pos]))) {
        ++Pos;
        Digits = true;
      }
    };
    digits();
    if (Pos < S.size() && S[Pos] == '.') {
      ++Pos;
      digits();
    }
    if (Pos < S.size() && (S[Pos] == 'e' || S[Pos] == 'E')) {
      ++Pos;
      if (Pos < S.size() && (S[Pos] == '-' || S[Pos] == '+'))
        ++Pos;
      digits();
    }
    if (!Digits)
      return fail("expected number");
    Out = std::strtod(S.c_str() + Start, nullptr);
    return true;
  }

  bool value(json::Value &Out) {
    if (Pos >= S.size())
      return fail("unexpected end of input");
    char C = S[Pos];
    if (C == '{') {
      ++Pos;
      Out.K = json::Value::Kind::Obj;
      skipWs();
      if (consume('}'))
        return true;
      while (true) {
        skipWs();
        std::string Key;
        if (!string(Key))
          return false;
        skipWs();
        if (!consume(':'))
          return fail("expected ':' in object");
        skipWs();
        json::Value V;
        if (!value(V))
          return false;
        Out.Obj.push_back({std::move(Key), std::move(V)});
        skipWs();
        if (consume(','))
          continue;
        if (consume('}'))
          return true;
        return fail("expected ',' or '}' in object");
      }
    }
    if (C == '[') {
      ++Pos;
      Out.K = json::Value::Kind::Arr;
      skipWs();
      if (consume(']'))
        return true;
      while (true) {
        skipWs();
        json::Value V;
        if (!value(V))
          return false;
        Out.Arr.push_back(std::move(V));
        skipWs();
        if (consume(','))
          continue;
        if (consume(']'))
          return true;
        return fail("expected ',' or ']' in array");
      }
    }
    if (C == '"') {
      Out.K = json::Value::Kind::Str;
      return string(Out.Str);
    }
    if (C == 't') {
      Out.K = json::Value::Kind::Bool;
      Out.B = true;
      return literal("true");
    }
    if (C == 'f') {
      Out.K = json::Value::Kind::Bool;
      Out.B = false;
      return literal("false");
    }
    if (C == 'n') {
      Out.K = json::Value::Kind::Null;
      return literal("null");
    }
    Out.K = json::Value::Kind::Num;
    return number(Out.Num);
  }

  const std::string &S;
  std::string *Err;
  std::size_t Pos = 0;
};

} // namespace

bool parcae::telemetry::json::parse(const std::string &Text, Value &Out,
                                    std::string *Err) {
  if (Err)
    Err->clear();
  return Parser(Text, Err).run(Out);
}

//===----------------------------------------------------------------------===//
// Trace validation
//===----------------------------------------------------------------------===//

bool parcae::telemetry::validateChromeTrace(const std::string &Json,
                                            std::string *Err) {
  auto fail = [&](const std::string &Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };
  json::Value Root;
  std::string ParseErr;
  if (!json::parse(Json, Root, &ParseErr))
    return fail("JSON parse error: " + ParseErr);
  const json::Value *Events = Root.find("traceEvents");
  if (!Events || Events->K != json::Value::Kind::Arr)
    return fail("missing traceEvents array");
  if (Events->Arr.empty())
    return fail("empty traceEvents array");

  // Per-(pid, tid) span-nesting depth and last timestamp.
  std::map<std::pair<double, double>, int> Depth;
  double LastTs = -1.0;
  for (std::size_t I = 0; I < Events->Arr.size(); ++I) {
    const json::Value &E = Events->Arr[I];
    auto at = [&] { return " (event " + std::to_string(I) + ")"; };
    if (E.K != json::Value::Kind::Obj)
      return fail("event is not an object" + at());
    const json::Value *Name = E.find("name");
    const json::Value *Ph = E.find("ph");
    const json::Value *Ts = E.find("ts");
    const json::Value *Pid = E.find("pid");
    const json::Value *Tid = E.find("tid");
    if (!Name || Name->K != json::Value::Kind::Str)
      return fail("event without string name" + at());
    if (!Ph || Ph->K != json::Value::Kind::Str || Ph->Str.size() != 1)
      return fail("event without one-char ph" + at());
    if (!Ts || Ts->K != json::Value::Kind::Num)
      return fail("event without numeric ts" + at());
    if (!Pid || Pid->K != json::Value::Kind::Num || !Tid ||
        Tid->K != json::Value::Kind::Num)
      return fail("event without numeric pid/tid" + at());
    char P = Ph->Str[0];
    if (P == 'M')
      continue; // metadata carries ts 0 out of band
    if (Ts->Num + 1e-9 < LastTs)
      return fail("timestamps not monotone" + at());
    LastTs = Ts->Num;
    auto Track = std::make_pair(Pid->Num, Tid->Num);
    if (P == 'B') {
      ++Depth[Track];
    } else if (P == 'E') {
      if (--Depth[Track] < 0)
        return fail("span end without begin" + at());
    } else if (P == 'C') {
      const json::Value *Args = E.find("args");
      if (!Args || Args->K != json::Value::Kind::Obj || Args->Obj.empty())
        return fail("counter event without args" + at());
    } else if (P != 'i') {
      return fail(std::string("unexpected phase '") + P + "'" + at());
    }
  }
  // Unclosed spans are allowed (a trace may end mid-run); negative depth
  // was already rejected above.
  return true;
}

//===----------------------------------------------------------------------===//
// TraceFile (--trace flag)
//===----------------------------------------------------------------------===//

const char *parcae::telemetry::traceFlagPath(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--trace") == 0 && I + 1 < Argc)
      return Argv[I + 1];
    if (std::strncmp(Argv[I], "--trace=", 8) == 0)
      return Argv[I] + 8;
  }
  return nullptr;
}

TraceFile::TraceFile(const char *P) {
  if (!P || !*P)
    return;
  Path = P;
  Rec = std::make_unique<TraceRecorder>();
  setRecorder(Rec.get());
}

TraceFile::~TraceFile() {
  if (!Rec)
    return;
  setRecorder(nullptr);
  if (writeChromeTrace(*Rec, Path)) {
    std::fprintf(stderr, "[telemetry] wrote %zu events to %s", Rec->size(),
                 Path.c_str());
    if (Rec->dropped())
      std::fprintf(stderr, " (%llu dropped)",
                   static_cast<unsigned long long>(Rec->dropped()));
    std::fprintf(stderr, " — open in https://ui.perfetto.dev\n");
  } else {
    std::fprintf(stderr, "[telemetry] FAILED to write %s\n", Path.c_str());
  }
  if (!Rec->metrics().empty()) {
    std::string MPath = Path + ".metrics.txt";
    std::FILE *F = std::fopen(MPath.c_str(), "w");
    if (F) {
      // Not now(): the simulator the clock was bound to is gone.
      std::string Text =
          Rec->metrics().snapshot(Rec->lastTimestamp()).text();
      std::fwrite(Text.data(), 1, Text.size(), F);
      std::fclose(F);
      std::fprintf(stderr, "[telemetry] metrics dump: %s\n", MPath.c_str());
    }
  }
}
