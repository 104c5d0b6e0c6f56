#include "griddb/rpc/xmlrpc_value.h"

#include <charconv>
#include <string_view>

#include "griddb/util/limits.h"
#include "griddb/util/strings.h"

namespace griddb::rpc {

using storage::DataType;
using storage::Value;

namespace {

// ---- direct-to-string XML writer ----
//
// The text codec's only encoder. One pass over a pre-sized buffer:
// numbers print with std::to_chars (doubles as chars_format::general at
// precision 17, which the standard defines as printf "%.17g" in the C
// locale, so the bytes match the tree writer that used snprintf), and
// string content takes a find_first_of fast path that bulk-appends when
// no escapable character occurs. Empty elements self-close, as the tree
// writer did.

constexpr std::string_view kXmlDeclaration =
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
constexpr std::string_view kXmlSpecials = "&<>\"'";

void AppendEscaped(std::string_view raw, std::string* out) {
  size_t plain = raw.find_first_of(kXmlSpecials);
  if (plain == std::string_view::npos) {
    out->append(raw);
    return;
  }
  out->append(raw, 0, plain);
  for (size_t i = plain; i < raw.size(); ++i) {
    switch (raw[i]) {
      case '&': *out += "&amp;"; break;
      case '<': *out += "&lt;"; break;
      case '>': *out += "&gt;"; break;
      case '"': *out += "&quot;"; break;
      case '\'': *out += "&apos;"; break;
      default: *out += raw[i];
    }
  }
}

void AppendInt(int64_t v, std::string* out) {
  char buf[24];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;  // 24 bytes hold any int64
  out->append(buf, end);
}

void AppendDouble(double v, std::string* out) {
  char buf[32];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, 17);
  (void)ec;  // "%.17g" output is at most 24 bytes
  out->append(buf, end);
}

/// <name>escaped text</name>, or <name/> when the text is empty.
void AppendTextElement(std::string_view name, std::string_view text,
                       std::string* out) {
  out->push_back('<');
  out->append(name);
  if (text.empty()) {
    out->append("/>");
    return;
  }
  out->push_back('>');
  AppendEscaped(text, out);
  out->append("</");
  out->append(name);
  out->push_back('>');
}

void AppendStringValueXml(std::string_view s, std::string* out) {
  if (s.empty()) {
    out->append("<value><string/></value>");
  } else {
    out->append("<value><string>");
    AppendEscaped(s, out);
    out->append("</string></value>");
  }
}

void AppendCellXml(const Value& cell, std::string* out) {
  switch (cell.type()) {
    case DataType::kNull:
      out->append("<value><nil/></value>");
      break;
    case DataType::kInt64:
      out->append("<value><i4>");
      AppendInt(cell.AsInt64Strict(), out);
      out->append("</i4></value>");
      break;
    case DataType::kDouble:
      out->append("<value><double>");
      AppendDouble(cell.AsDoubleStrict(), out);
      out->append("</double></value>");
      break;
    case DataType::kBool:
      out->append(cell.AsBoolStrict() ? "<value><boolean>1</boolean></value>"
                                      : "<value><boolean>0</boolean></value>");
      break;
    case DataType::kString:
      AppendStringValueXml(cell.AsStringStrict(), out);
      break;
  }
}

void AppendResultSetXml(const storage::ResultSet& rs, std::string* out) {
  // The classic struct{columns,rows} boxing of a result set; the member
  // order (columns < rows) matches std::map iteration.
  out->append("<value><struct><member><name>columns</name><value><array>");
  if (rs.columns.empty()) {
    out->append("<data/>");
  } else {
    out->append("<data>");
    for (const std::string& c : rs.columns) AppendStringValueXml(c, out);
    out->append("</data>");
  }
  out->append("</array></value></member><member><name>rows</name>"
              "<value><array>");
  if (rs.rows.empty()) {
    out->append("<data/>");
  } else {
    out->append("<data>");
    for (const storage::Row& row : rs.rows) {
      out->append("<value><array>");
      if (row.empty()) {
        out->append("<data/>");
      } else {
        out->append("<data>");
        for (const Value& cell : row) AppendCellXml(cell, out);
        out->append("</data>");
      }
      out->append("</array></value>");
    }
    out->append("</data>");
  }
  out->append("</array></value></member></struct></value>");
}

size_t EstimateCellXmlSize(const Value& cell) {
  switch (cell.type()) {
    case DataType::kNull: return 22;
    case DataType::kInt64: return 38;
    case DataType::kDouble: return 52;
    case DataType::kBool: return 36;
    case DataType::kString: return 34 + cell.AsStringStrict().size();
  }
  return 22;
}

// ---- one-pass XML-RPC reader ----
//
// A recursive-descent reader over the raw message that builds
// XmlRpcValue directly, with no intermediate document tree. Element names
// compare as views; character data stays a view into the input unless it
// holds an entity, CDATA section or comment; numbers parse with
// std::from_chars. It accepts what XML-RPC peers send: an XML
// declaration and DOCTYPE (skipped), comments and whitespace between
// elements, attributes (checked, then ignored), CDATA, the five named
// entities and numeric character references, <value/>, and bare
// <value>text</value> as a string. <string> and bare <value> content is
// kept verbatim, whitespace included. Anything else — mismatched or
// unterminated tags, unknown entities or types, bad numbers, text beside
// a typed value, values nested deeper than kMaxNestingDepth, trailing
// content — is a ParseError.

class Reader {
 public:
  explicit Reader(std::string_view in) : in_(in) {}

  Result<RpcRequest> ReadRequest();
  Result<XmlRpcValue> ReadResponse();

 private:
  // Every step returns false on failure after recording the first error
  // (with its line) in error_; callers only propagate the false.
  bool Fail(std::string message) {
    if (error_.ok()) {
      size_t line = 1;
      for (size_t i = 0; i < pos_ && i < in_.size(); ++i) {
        if (in_[i] == '\n') ++line;
      }
      error_ = ParseError("XML-RPC line " + std::to_string(line) + ": " +
                          std::move(message));
    }
    return false;
  }

  bool AtEnd() const { return pos_ >= in_.size(); }
  bool LookingAt(std::string_view s) const {
    return in_.compare(pos_, s.size(), s) == 0;
  }
  bool Match(std::string_view s) {
    if (!LookingAt(s)) return false;
    pos_ += s.size();
    return true;
  }
  static bool IsSpace(char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  }
  static bool IsBlank(std::string_view text) {
    for (char c : text) {
      if (!IsSpace(c)) return false;
    }
    return true;
  }
  static bool IsNameStart(char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  }
  static bool IsNameChar(char c) {
    return IsNameStart(c) || (c >= '0' && c <= '9') || c == '-' || c == '.';
  }
  void SkipSpaces() {
    while (!AtEnd() && IsSpace(in_[pos_])) ++pos_;
  }
  /// The next '<' or '&' at or after `from`, or npos.
  size_t FindMarkup(size_t from) const {
    for (size_t i = from; i < in_.size(); ++i) {
      if (in_[i] == '<' || in_[i] == '&') return i;
    }
    return std::string_view::npos;
  }

  /// Skips to just past `terminator`.
  bool SkipPast(std::string_view terminator, const char* what) {
    size_t end = in_.find(terminator, pos_);
    if (end == std::string_view::npos) {
      return Fail(std::string("unterminated ") + what);
    }
    pos_ = end + terminator.size();
    return true;
  }

  /// Whitespace and comments between elements.
  bool SkipMisc() {
    while (true) {
      SkipSpaces();
      if (!Match("<!--")) return true;
      if (!SkipPast("-->", "comment")) return false;
    }
  }

  bool SkipProlog() {
    SkipSpaces();
    if (Match("<?xml") && !SkipPast("?>", "declaration")) return false;
    if (!SkipMisc()) return false;
    if (Match("<!DOCTYPE")) {
      size_t end = in_.find_first_of("[>", pos_);
      if (end != std::string_view::npos && in_[end] == '[') {
        end = in_.find(']', end);  // internal subset, skipped whole
        if (end != std::string_view::npos) end = in_.find('>', end);
      }
      if (end == std::string_view::npos) return Fail("unterminated DOCTYPE");
      pos_ = end + 1;
    }
    return SkipMisc();
  }

  bool ReadName(std::string_view* name) {
    if (AtEnd() || !IsNameStart(in_[pos_])) return Fail("expected name");
    size_t start = pos_;
    while (!AtEnd() && IsNameChar(in_[pos_])) ++pos_;
    *name = in_.substr(start, pos_ - start);
    return true;
  }

  /// Decodes the entity or character reference at pos_ (on '&').
  bool AppendEntity(std::string* out) {
    size_t semi = in_.find(';', pos_);
    if (semi == std::string_view::npos || semi - pos_ > 16) {
      return Fail("unterminated entity");
    }
    std::string_view entity = in_.substr(pos_ + 1, semi - pos_ - 1);
    pos_ = semi + 1;
    if (entity == "amp") out->push_back('&');
    else if (entity == "lt") out->push_back('<');
    else if (entity == "gt") out->push_back('>');
    else if (entity == "quot") out->push_back('"');
    else if (entity == "apos") out->push_back('\'');
    else if (entity.empty() || entity[0] != '#') {
      return Fail("unknown entity &" + std::string(entity) + ";");
    } else {
      return AppendCharReference(entity, out);
    }
    return true;
  }

  /// "#123" / "#x7B" as UTF-8.
  bool AppendCharReference(std::string_view entity, std::string* out) {
    std::string_view digits = entity.substr(1);
    int base = 10;
    if (!digits.empty() && (digits[0] == 'x' || digits[0] == 'X')) {
      digits.remove_prefix(1);
      base = 16;
    }
    uint32_t cp = 0;
    auto [end, ec] = std::from_chars(digits.data(),
                                     digits.data() + digits.size(), cp, base);
    if (digits.empty() || ec != std::errc() ||
        end != digits.data() + digits.size() || cp == 0 || cp > 0x10FFFF) {
      return Fail("bad character reference &" + std::string(entity) + ";");
    }
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
    return true;
  }

  /// Reads a start tag; attributes are checked and dropped. `*empty` is
  /// set for a self-closing <name/>.
  bool ReadStartTag(std::string_view* name, bool* empty) {
    if (!Match("<")) return Fail("expected '<'");
    if (!ReadName(name)) return false;
    while (true) {
      SkipSpaces();
      if (AtEnd()) return Fail("unterminated start tag <" + std::string(*name));
      if (Match("/>")) {
        *empty = true;
        return true;
      }
      if (Match(">")) {
        *empty = false;
        return true;
      }
      if (!SkipAttribute()) return false;
    }
  }

  bool SkipAttribute() {
    std::string_view attribute;
    if (!ReadName(&attribute)) return false;
    SkipSpaces();
    if (!Match("=")) return Fail("expected '=' after attribute name");
    SkipSpaces();
    if (AtEnd() || (in_[pos_] != '"' && in_[pos_] != '\'')) {
      return Fail("expected quoted attribute value");
    }
    const char quote = in_[pos_++];
    std::string ignored;
    while (true) {
      if (AtEnd()) return Fail("unterminated attribute value");
      const char c = in_[pos_];
      if (c == quote) break;
      if (c == '<') return Fail("'<' in attribute value");
      if (c == '&') {
        if (!AppendEntity(&ignored)) return false;
      } else {
        ++pos_;
      }
    }
    ++pos_;  // closing quote
    return true;
  }

  /// Consumes exactly "<name>" (lead '<') or "</name>" (lead '/').
  bool MatchTag(char lead, std::string_view name) {
    const size_t prefix = lead == '/' ? 2 : 1;
    const size_t end = pos_ + prefix + name.size();
    if (end >= in_.size() || in_[pos_] != '<' || in_[end] != '>' ||
        (lead == '/' && in_[pos_ + 1] != '/') ||
        in_.compare(pos_ + prefix, name.size(), name) != 0) {
      return false;
    }
    pos_ = end + 1;
    return true;
  }

  /// Skips whitespace and comments, then reads the start tag <name>.
  bool ExpectOpen(std::string_view name, bool* empty) {
    if (MatchTag('<', name)) {  // the compact form this codec writes
      *empty = false;
      return true;
    }
    std::string_view got;
    if (!SkipMisc() || !ReadStartTag(&got, empty)) return false;
    if (got != name) {
      return Fail("expected <" + std::string(name) + ">, got <" +
                  std::string(got) + ">");
    }
    return true;
  }

  bool ExpectClose(std::string_view name) {
    if (MatchTag('/', name)) return true;
    if (!Match("</")) return Fail("expected </" + std::string(name) + ">");
    std::string_view got;
    if (!ReadName(&got)) return false;
    if (got != name) {
      return Fail("mismatched close tag </" + std::string(got) + "> for <" +
                  std::string(name) + ">");
    }
    SkipSpaces();
    if (!Match(">")) return Fail("expected '>' in close tag");
    return true;
  }

  /// Reads character data up to the next start or end tag. `*text` views
  /// the input when the run holds no entity, CDATA section or comment;
  /// otherwise it views scratch_, valid until the next call.
  bool ReadText(std::string_view* text) {
    const size_t start = pos_;
    size_t stop = FindMarkup(pos_);
    if (stop == std::string_view::npos) return Fail("unterminated element");
    if (in_[stop] == '<' && in_.compare(stop, 2, "<!") != 0) {
      pos_ = stop;
      *text = in_.substr(start, stop - start);
      return true;
    }
    scratch_.assign(in_.substr(start, stop - start));
    pos_ = stop;
    while (true) {
      if (AtEnd()) return Fail("unterminated element");
      const char c = in_[pos_];
      if (c == '&') {
        if (!AppendEntity(&scratch_)) return false;
        continue;
      }
      if (c == '<') {
        if (Match("<![CDATA[")) {
          size_t end = in_.find("]]>", pos_);
          if (end == std::string_view::npos) return Fail("unterminated CDATA");
          scratch_.append(in_.substr(pos_, end - pos_));
          pos_ = end + 3;
          continue;
        }
        if (Match("<!--")) {
          if (!SkipPast("-->", "comment")) return false;
          continue;
        }
        break;
      }
      size_t next = FindMarkup(pos_);
      if (next == std::string_view::npos) return Fail("unterminated element");
      scratch_.append(in_.substr(pos_, next - pos_));
      pos_ = next;
    }
    *text = scratch_;
    return true;
  }

  /// The character data of a text-only element whose start tag was just
  /// read, through its close tag.
  bool ReadLeafText(std::string_view name, bool empty, std::string_view* text) {
    if (empty) {
      *text = {};
      return true;
    }
    return ReadText(text) && ExpectClose(name);
  }

  /// Skips the rest of an element whose start tag was just read, checking
  /// that its tags balance (unknown header elements from newer peers).
  bool SkipElement(std::string_view name, bool empty) {
    if (empty) return true;
    std::vector<std::string_view> open = {name};
    while (!open.empty()) {
      std::string_view text;
      if (!ReadText(&text)) return false;
      if (LookingAt("</")) {
        if (!ExpectClose(open.back())) return false;
        open.pop_back();
        continue;
      }
      std::string_view child;
      bool child_empty = false;
      if (!ReadStartTag(&child, &child_empty)) return false;
      if (child_empty) continue;
      if (open.size() >= static_cast<size_t>(kMaxNestingDepth)) {
        return Fail("elements nested deeper than " +
                    std::to_string(kMaxNestingDepth) + " levels");
      }
      open.push_back(child);
    }
    return true;
  }

  /// One <value> element, leading whitespace and comments skipped.
  /// `depth` counts the values enclosing it.
  bool ReadValue(int depth, XmlRpcValue* out) {
    if (depth > kMaxNestingDepth) {
      return Fail("XML-RPC values nested deeper than " +
                  std::to_string(kMaxNestingDepth) + " levels");
    }
    bool empty = false;
    if (!ExpectOpen("value", &empty)) return false;
    if (empty) {
      *out = XmlRpcValue(std::string());
      return true;
    }
    std::string_view text;
    if (!ReadText(&text)) return false;
    if (LookingAt("</")) {
      // Bare text inside <value> is a string per the XML-RPC spec.
      *out = XmlRpcValue(std::string(text));
      return ExpectClose("value");
    }
    if (!IsBlank(text)) return Fail("text beside a typed <value>");
    std::string_view type;
    if (!ReadStartTag(&type, &empty) || !ReadTyped(type, empty, depth, out) ||
        !ReadText(&text)) {
      return false;
    }
    if (!IsBlank(text)) return Fail("text beside a typed <value>");
    if (!LookingAt("</")) return Fail("more than one type inside <value>");
    return ExpectClose("value");
  }

  /// The body of a type element (<i4>, <array>, ...) whose start tag was
  /// just read, through its close tag.
  bool ReadTyped(std::string_view type, bool empty, int depth,
                 XmlRpcValue* out) {
    std::string_view text;
    if (type == "i4" || type == "int") {
      int64_t v = 0;
      if (!ReadLeafText(type, empty, &text)) return false;
      if (!ParseInt64(text, &v)) {
        return Fail("bad XML-RPC int '" + std::string(text) + "'");
      }
      *out = XmlRpcValue(v);
      return true;
    }
    if (type == "double") {
      double v = 0;
      if (!ReadLeafText(type, empty, &text)) return false;
      if (!ParseDouble(text, &v)) {
        return Fail("bad XML-RPC double '" + std::string(text) + "'");
      }
      *out = XmlRpcValue(v);
      return true;
    }
    if (type == "string") {
      if (!ReadLeafText(type, empty, &text)) return false;
      *out = XmlRpcValue(std::string(text));
      return true;
    }
    if (type == "boolean") {
      if (!ReadLeafText(type, empty, &text)) return false;
      text = Trim(text);
      if (text != "1" && text != "0") {
        return Fail("bad XML-RPC boolean '" + std::string(text) + "'");
      }
      *out = XmlRpcValue(text == "1");
      return true;
    }
    if (type == "nil") {
      if (!ReadLeafText(type, empty, &text)) return false;
      if (!IsBlank(text)) return Fail("text inside <nil>");
      *out = XmlRpcValue();
      return true;
    }
    if (type == "array") {
      if (empty) return Fail("<array> without <data>");
      bool data_empty = false;
      if (!ExpectOpen("data", &data_empty)) return false;
      XmlRpcArray items;
      if (!data_empty) {
        // Sibling arrays tend to share a length (result rows all do), so
        // the last array closed at this depth sizes the next one.
        size_t* hint = depth < kHintDepths ? &array_size_hint_[depth] : nullptr;
        if (hint != nullptr) items.reserve(*hint);
        while (true) {
          if (!SkipMisc()) return false;
          if (LookingAt("</")) break;
          items.emplace_back();
          if (!ReadValue(depth + 1, &items.back())) return false;
        }
        if (!ExpectClose("data")) return false;
        if (hint != nullptr) *hint = items.size();
      }
      if (!SkipMisc() || !ExpectClose("array")) return false;
      *out = XmlRpcValue(std::move(items));
      return true;
    }
    if (type == "struct") {
      XmlRpcStruct record;
      while (!empty) {
        if (!SkipMisc()) return false;
        if (LookingAt("</")) {
          if (!ExpectClose("struct")) return false;
          break;
        }
        bool member_empty = false, name_empty = false;
        if (!ExpectOpen("member", &member_empty)) return false;
        if (member_empty) return Fail("<member> missing name/value");
        if (!ExpectOpen("name", &name_empty) ||
            !ReadLeafText("name", name_empty, &text)) {
          return false;
        }
        XmlRpcValue& member = record[std::string(text)];
        if (!ReadValue(depth + 1, &member) || !SkipMisc() ||
            !ExpectClose("member")) {
          return false;
        }
      }
      *out = XmlRpcValue(std::move(record));
      return true;
    }
    return Fail("unknown XML-RPC type <" + std::string(type) + ">");
  }

  /// After the root element closes: only whitespace and comments remain.
  bool ExpectEnd() {
    if (!SkipMisc()) return false;
    if (!AtEnd()) return Fail("trailing content after document element");
    return true;
  }

  bool ReadParams(bool empty, XmlRpcArray* params) {
    if (empty) return true;
    while (true) {
      if (!SkipMisc()) return false;
      if (LookingAt("</")) return ExpectClose("params");
      bool param_empty = false;
      if (!ExpectOpen("param", &param_empty)) return false;
      if (param_empty) return Fail("malformed <param>");
      params->emplace_back();
      if (!ReadValue(1, &params->back()) || !SkipMisc() ||
          !ExpectClose("param")) {
        return false;
      }
    }
  }

  /// <methodCall> through the end of input. Header elements carry
  /// tokens (surrounding whitespace dropped); unknown ones are skipped.
  bool ReadCall(RpcRequest* request, std::string* trace,
                std::string* deadline) {
    bool empty = false;
    if (!SkipProlog() || !ExpectOpen("methodCall", &empty)) return false;
    while (!empty) {
      if (!SkipMisc()) return false;
      if (LookingAt("</")) {
        if (!ExpectClose("methodCall")) return false;
        break;
      }
      std::string_view name;
      bool element_empty = false;
      if (!ReadStartTag(&name, &element_empty)) return false;
      if (name == "params") {
        if (!ReadParams(element_empty, &request->params)) return false;
        continue;
      }
      std::string* field = nullptr;
      if (name == "methodName") field = &request->method;
      else if (name == "sessionToken") field = &request->session_token;
      else if (name == "tenant") field = &request->tenant;
      else if (name == "wireAccept") field = &request->wire_accept;
      else if (name == "traceContext") field = trace;
      else if (name == "deadlineMs") field = deadline;
      if (field == nullptr) {
        if (!SkipElement(name, element_empty)) return false;
        continue;
      }
      std::string_view text;
      if (!ReadLeafText(name, element_empty, &text)) return false;
      field->assign(Trim(text));
    }
    return ExpectEnd();
  }

  /// <methodResponse> through the end of input: the single param's
  /// value, or the fault's detail struct (`*fault` set).
  bool ReadReply(XmlRpcValue* value, bool* fault) {
    bool empty = false;
    if (!SkipProlog() || !ExpectOpen("methodResponse", &empty)) return false;
    if (empty) return Fail("response missing <params>");
    std::string_view name;
    if (!SkipMisc() || !ReadStartTag(&name, &empty)) return false;
    if (name == "fault") {
      if (empty) return Fail("empty <fault>");
      if (!ReadValue(1, value) || !SkipMisc() || !ExpectClose("fault")) {
        return false;
      }
      *fault = true;
    } else if (name == "params") {
      if (empty) return Fail("response missing <params>");
      bool param_empty = false;
      if (!ExpectOpen("param", &param_empty)) return false;
      if (param_empty) return Fail("response missing <params>");
      if (!ReadValue(1, value) || !SkipMisc() || !ExpectClose("param") ||
          !SkipMisc() || !ExpectClose("params")) {
        return false;
      }
    } else {
      return Fail("unexpected <" + std::string(name) + "> in <methodResponse>");
    }
    return SkipMisc() && ExpectClose("methodResponse") && ExpectEnd();
  }

  static constexpr int kHintDepths = 8;

  std::string_view in_;
  size_t pos_ = 0;
  std::string scratch_;
  size_t array_size_hint_[kHintDepths] = {};
  Status error_;
};

std::string HexU64(uint64_t v) {
  char buf[16];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v, 16);
  (void)ec;  // 16 hex digits hold any uint64
  return std::string(buf, end);
}

bool ParseHexU64(std::string_view text, uint64_t* out) {
  if (text.empty() || text.size() > 16) return false;
  uint64_t value = 0;
  auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value, 16);
  if (ec != std::errc() || end != text.data() + text.size()) return false;
  *out = value;
  return true;
}

Result<RpcRequest> Reader::ReadRequest() {
  RpcRequest request;
  std::string trace, deadline;
  if (!ReadCall(&request, &trace, &deadline)) return error_;
  if (request.method.empty()) return ParseError("missing <methodName>");
  if (!trace.empty()) {
    std::string_view text = trace;
    size_t colon = text.find(':');
    if (colon == std::string_view::npos ||
        !ParseHexU64(text.substr(0, colon), &request.trace_id) ||
        !ParseHexU64(text.substr(colon + 1), &request.parent_span_id)) {
      return ParseError("malformed <traceContext> '" + trace + "'");
    }
  }
  if (!deadline.empty()) {
    if (!ParseDouble(deadline, &request.deadline_ms) ||
        request.deadline_ms < 0) {
      return ParseError("malformed <deadlineMs> '" + deadline + "'");
    }
  }
  return request;
}

Status FaultStatus(const XmlRpcValue& detail) {
  auto code_member = detail.Member("faultCode");
  auto text_member = detail.Member("faultString");
  StatusCode code = StatusCode::kInternal;
  std::string message = "remote fault";
  if (code_member.ok()) {
    auto code_value = (*code_member)->AsInt();
    if (code_value.ok()) code = static_cast<StatusCode>(*code_value);
  }
  if (text_member.ok()) {
    auto text = (*text_member)->AsString();
    if (text.ok()) message = *text;
  }
  if (code == StatusCode::kOk) code = StatusCode::kInternal;
  return Status(code, message);
}

Result<XmlRpcValue> Reader::ReadResponse() {
  XmlRpcValue value;
  bool fault = false;
  if (!ReadReply(&value, &fault)) return error_;
  if (fault) return FaultStatus(value);
  return value;
}

}  // namespace

Result<int64_t> XmlRpcValue::AsInt() const {
  if (const auto* v = std::get_if<int64_t>(&data_)) return *v;
  return TypeError("XML-RPC value is not an int");
}

Result<double> XmlRpcValue::AsDouble() const {
  if (const auto* v = std::get_if<double>(&data_)) return *v;
  if (const auto* v = std::get_if<int64_t>(&data_)) {
    return static_cast<double>(*v);
  }
  return TypeError("XML-RPC value is not a double");
}

Result<bool> XmlRpcValue::AsBool() const {
  if (const auto* v = std::get_if<bool>(&data_)) return *v;
  return TypeError("XML-RPC value is not a boolean");
}

Result<std::string> XmlRpcValue::AsString() const {
  if (const auto* v = std::get_if<std::string>(&data_)) return *v;
  return TypeError("XML-RPC value is not a string");
}

Result<const XmlRpcArray*> XmlRpcValue::AsArray() const {
  if (const auto* v = std::get_if<XmlRpcArray>(&data_)) return v;
  return TypeError("XML-RPC value is not an array");
}

Result<const XmlRpcStruct*> XmlRpcValue::AsStruct() const {
  if (const auto* v = std::get_if<XmlRpcStruct>(&data_)) return v;
  return TypeError("XML-RPC value is not a struct");
}

Result<const XmlRpcValue*> XmlRpcValue::Member(const std::string& key) const {
  GRIDDB_ASSIGN_OR_RETURN(const XmlRpcStruct* s, AsStruct());
  auto it = s->find(key);
  if (it == s->end()) return NotFound("struct member '" + key + "' absent");
  return &it->second;
}

void XmlRpcValue::AppendXml(std::string* out) const {
  if (is_empty()) {
    out->append("<value><nil/></value>");
  } else if (const auto* i = std::get_if<int64_t>(&data_)) {
    out->append("<value><i4>");
    AppendInt(*i, out);
    out->append("</i4></value>");
  } else if (const auto* d = std::get_if<double>(&data_)) {
    out->append("<value><double>");
    AppendDouble(*d, out);
    out->append("</double></value>");
  } else if (const auto* b = std::get_if<bool>(&data_)) {
    out->append(*b ? "<value><boolean>1</boolean></value>"
                   : "<value><boolean>0</boolean></value>");
  } else if (const auto* s = std::get_if<std::string>(&data_)) {
    AppendStringValueXml(*s, out);
  } else if (const auto* array = std::get_if<XmlRpcArray>(&data_)) {
    out->append("<value><array>");
    if (array->empty()) {
      out->append("<data/>");
    } else {
      out->append("<data>");
      for (const XmlRpcValue& item : *array) item.AppendXml(out);
      out->append("</data>");
    }
    out->append("</array></value>");
  } else if (const auto* record = std::get_if<XmlRpcStruct>(&data_)) {
    if (record->empty()) {
      out->append("<value><struct/></value>");
    } else {
      out->append("<value><struct>");
      for (const auto& [key, member] : *record) {
        out->append("<member>");
        AppendTextElement("name", key, out);
        member.AppendXml(out);
        out->append("</member>");
      }
      out->append("</struct></value>");
    }
  } else if (const auto* rs = std::get_if<ResultSetPtr>(&data_)) {
    AppendResultSetXml(**rs, out);
  }
}

size_t XmlRpcValue::EstimateXmlSize() const {
  if (const auto* s = std::get_if<std::string>(&data_)) {
    return 34 + s->size() + s->size() / 8;
  }
  if (const auto* array = std::get_if<XmlRpcArray>(&data_)) {
    size_t total = 30;
    for (const XmlRpcValue& item : *array) total += item.EstimateXmlSize();
    return total;
  }
  if (const auto* record = std::get_if<XmlRpcStruct>(&data_)) {
    size_t total = 32;
    for (const auto& [key, member] : *record) {
      total += 30 + key.size() + member.EstimateXmlSize();
    }
    return total;
  }
  if (const auto* rs = std::get_if<ResultSetPtr>(&data_)) {
    size_t total = 140;
    for (const std::string& c : (*rs)->columns) total += 34 + c.size();
    for (const storage::Row& row : (*rs)->rows) {
      total += 30;
      for (const Value& cell : row) total += EstimateCellXmlSize(cell);
    }
    return total;
  }
  return 52;  // nil / int / double / bool upper bound
}

bool XmlRpcValue::operator==(const XmlRpcValue& other) const {
  if (!is_result_set() && !other.is_result_set()) {
    return data_ == other.data_;
  }
  // A wrapped result set and its struct boxing are the same wire value;
  // compare through the canonical serialization.
  std::string a, b;
  AppendXml(&a);
  other.AppendXml(&b);
  return a == b;
}

size_t XmlRpcValue::WireSize() const {
  std::string out;
  out.reserve(EstimateXmlSize());
  AppendXml(&out);
  return out.size();
}

// ---- ResultSet interop ----

XmlRpcValue ResultSetToRpc(const storage::ResultSet& rs) {
  return XmlRpcValue(std::make_shared<storage::ResultSet>(rs));
}

XmlRpcValue ResultSetToRpc(storage::ResultSet&& rs) {
  return XmlRpcValue(std::make_shared<storage::ResultSet>(std::move(rs)));
}

Result<storage::ResultSet> RpcToResultSet(const XmlRpcValue& value) {
  if (const storage::ResultSet* native = value.result_set()) return *native;
  storage::ResultSet rs;
  GRIDDB_ASSIGN_OR_RETURN(const XmlRpcValue* columns, value.Member("columns"));
  GRIDDB_ASSIGN_OR_RETURN(const XmlRpcArray* column_items, columns->AsArray());
  for (const XmlRpcValue& c : *column_items) {
    GRIDDB_ASSIGN_OR_RETURN(std::string name, c.AsString());
    rs.columns.push_back(std::move(name));
  }
  GRIDDB_ASSIGN_OR_RETURN(const XmlRpcValue* rows, value.Member("rows"));
  GRIDDB_ASSIGN_OR_RETURN(const XmlRpcArray* row_items, rows->AsArray());
  for (const XmlRpcValue& row_value : *row_items) {
    GRIDDB_ASSIGN_OR_RETURN(const XmlRpcArray* cells, row_value.AsArray());
    // Every ResultSet in the program is rectangular; rows from a peer are
    // where that gets checked.
    if (cells->size() != rs.columns.size()) {
      return Corruption("result-set row " + std::to_string(rs.rows.size()) +
                        " has " + std::to_string(cells->size()) +
                        " cells for " + std::to_string(rs.columns.size()) +
                        " columns");
    }
    storage::Row row;
    row.reserve(cells->size());
    for (const XmlRpcValue& cell : *cells) {
      const auto& data = cell.data_;
      if (const auto* i = std::get_if<int64_t>(&data)) row.emplace_back(*i);
      else if (const auto* d = std::get_if<double>(&data)) row.emplace_back(*d);
      else if (const auto* s = std::get_if<std::string>(&data)) row.emplace_back(*s);
      else if (const auto* b = std::get_if<bool>(&data)) row.emplace_back(*b);
      else if (cell.is_empty()) row.push_back(Value::Null());
      else return TypeError("unsupported cell type in result set");
    }
    rs.rows.push_back(std::move(row));
  }
  return rs;
}

// ---- message codec ----

std::string EncodeRequest(const RpcRequest& request) {
  size_t estimate = kXmlDeclaration.size() + 160 + request.method.size() +
                    request.session_token.size() + request.tenant.size() +
                    request.wire_accept.size();
  for (const XmlRpcValue& param : request.params) {
    estimate += 16 + param.EstimateXmlSize();
  }
  std::string out;
  out.reserve(estimate);
  out.append(kXmlDeclaration);
  out.append("<methodCall>");
  AppendTextElement("methodName", request.method, &out);
  if (!request.session_token.empty()) {
    AppendTextElement("sessionToken", request.session_token, &out);
  }
  // Sparse: untraced requests carry no trace element at all.
  if (request.trace_id != 0) {
    AppendTextElement("traceContext",
                      HexU64(request.trace_id) + ":" +
                          HexU64(request.parent_span_id),
                      &out);
  }
  // Sparse: calls without a deadline carry no budget element at all.
  if (request.deadline_ms > 0) {
    out.append("<deadlineMs>");
    AppendDouble(request.deadline_ms, &out);
    out.append("</deadlineMs>");
  }
  // Sparse: anonymous-tenant calls carry no tenant element at all.
  if (!request.tenant.empty()) {
    AppendTextElement("tenant", request.tenant, &out);
  }
  // Sparse: clients that never negotiated binary framing carry no
  // wireAccept element at all (the byte-identity invariant again).
  if (!request.wire_accept.empty()) {
    AppendTextElement("wireAccept", request.wire_accept, &out);
  }
  if (request.params.empty()) {
    out.append("<params/>");
  } else {
    out.append("<params>");
    for (const XmlRpcValue& param : request.params) {
      out.append("<param>");
      param.AppendXml(&out);
      out.append("</param>");
    }
    out.append("</params>");
  }
  out.append("</methodCall>");
  return out;
}

Result<RpcRequest> DecodeRequest(std::string_view raw) {
  return Reader(raw).ReadRequest();
}

std::string EncodeResponse(const XmlRpcValue& value) {
  static constexpr std::string_view kPrefix =
      "<methodResponse><params><param>";
  static constexpr std::string_view kSuffix = "</param></params></methodResponse>";
  std::string out;
  out.reserve(kXmlDeclaration.size() + kPrefix.size() + kSuffix.size() +
              value.EstimateXmlSize());
  out.append(kXmlDeclaration);
  out.append(kPrefix);
  value.AppendXml(&out);
  out.append(kSuffix);
  return out;
}

std::string EncodeFault(const Status& status) {
  XmlRpcStruct detail;
  detail["faultCode"] = static_cast<int64_t>(status.code());
  detail["faultString"] = std::string(StatusCodeName(status.code())) + ": " +
                          status.message();
  const XmlRpcValue value(std::move(detail));
  std::string out;
  out.reserve(kXmlDeclaration.size() + 48 + value.EstimateXmlSize());
  out.append(kXmlDeclaration);
  out.append("<methodResponse><fault>");
  value.AppendXml(&out);
  out.append("</fault></methodResponse>");
  return out;
}

Result<XmlRpcValue> DecodeResponse(std::string_view raw) {
  return Reader(raw).ReadResponse();
}

}  // namespace griddb::rpc
