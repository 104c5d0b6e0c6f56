#include "griddb/xml/xml.h"

#include <cctype>

#include "griddb/util/limits.h"
#include "griddb/util/strings.h"

namespace griddb::xml {

const Node* Node::Child(std::string_view child_name) const {
  for (const auto& child : children) {
    if (child->name == child_name) return child.get();
  }
  return nullptr;
}

Node* Node::Child(std::string_view child_name) {
  return const_cast<Node*>(static_cast<const Node*>(this)->Child(child_name));
}

std::vector<const Node*> Node::Children(std::string_view child_name) const {
  std::vector<const Node*> out;
  for (const auto& child : children) {
    if (child->name == child_name) out.push_back(child.get());
  }
  return out;
}

std::string Node::Attribute(std::string_view key) const {
  auto it = attributes.find(std::string(key));
  return it == attributes.end() ? std::string() : it->second;
}

bool Node::HasAttribute(std::string_view key) const {
  return attributes.find(std::string(key)) != attributes.end();
}

std::string Node::ChildText(std::string_view child_name,
                            std::string_view fallback) const {
  const Node* child = Child(child_name);
  return child ? child->text : std::string(fallback);
}

Node& Node::AddChild(std::string child_name) {
  children.push_back(std::make_unique<Node>(std::move(child_name)));
  return *children.back();
}

Node& Node::AddTextChild(std::string child_name, std::string content) {
  Node& child = AddChild(std::move(child_name));
  child.text = std::move(content);
  return child;
}

std::unique_ptr<Node> Node::Clone() const {
  auto copy = std::make_unique<Node>(name);
  copy->attributes = attributes;
  copy->text = text;
  copy->children.reserve(children.size());
  for (const auto& child : children) copy->children.push_back(child->Clone());
  return copy;
}

std::string Escape(std::string_view raw) {
  // Most content (numbers, identifiers) has nothing to escape: one scan,
  // no per-character appends.
  size_t first = raw.find_first_of("&<>\"'");
  if (first == std::string_view::npos) return std::string(raw);
  std::string out;
  out.reserve(raw.size() + 8);
  out.append(raw, 0, first);
  for (char c : raw.substr(first)) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out += c;
    }
  }
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view input) : input_(input) {}

  Result<std::unique_ptr<Node>> ParseDocument() {
    SkipProlog();
    GRIDDB_ASSIGN_OR_RETURN(std::unique_ptr<Node> root, ParseElement(1));
    SkipMisc();
    if (pos_ != input_.size()) {
      return Error("trailing content after document element");
    }
    return root;
  }

 private:
  Status Error(std::string message) const {
    // Report a 1-based line number for diagnostics.
    size_t line = 1;
    for (size_t i = 0; i < pos_ && i < input_.size(); ++i) {
      if (input_[i] == '\n') ++line;
    }
    return griddb::ParseError("XML line " + std::to_string(line) + ": " +
                              std::move(message));
  }

  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  bool Match(std::string_view s) {
    if (input_.substr(pos_, s.size()) == s) {
      pos_ += s.size();
      return true;
    }
    return false;
  }

  void SkipWhitespace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) ++pos_;
  }

  bool SkipComment() {
    if (!Match("<!--")) return false;
    size_t end = input_.find("-->", pos_);
    pos_ = (end == std::string_view::npos) ? input_.size() : end + 3;
    return true;
  }

  void SkipMisc() {
    while (true) {
      SkipWhitespace();
      if (!SkipComment()) return;
    }
  }

  void SkipProlog() {
    SkipWhitespace();
    if (Match("<?xml")) {
      size_t end = input_.find("?>", pos_);
      pos_ = (end == std::string_view::npos) ? input_.size() : end + 2;
    }
    SkipMisc();
    // <!DOCTYPE ...> (no internal subset support).
    if (Match("<!DOCTYPE")) {
      size_t end = input_.find('>', pos_);
      pos_ = (end == std::string_view::npos) ? input_.size() : end + 1;
    }
    SkipMisc();
  }

  static bool IsNameStart(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
  }
  static bool IsNameChar(char c) {
    return IsNameStart(c) || std::isdigit(static_cast<unsigned char>(c)) ||
           c == '-' || c == '.';
  }

  Result<std::string> ParseName() {
    if (AtEnd() || !IsNameStart(Peek())) return Error("expected name");
    size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    return std::string(input_.substr(start, pos_ - start));
  }

  Result<std::string> DecodeEntities(std::string_view raw) {
    std::string out;
    out.reserve(raw.size());
    for (size_t i = 0; i < raw.size();) {
      if (raw[i] != '&') {
        out += raw[i++];
        continue;
      }
      size_t semi = raw.find(';', i);
      if (semi == std::string_view::npos) return Error("unterminated entity");
      std::string_view entity = raw.substr(i + 1, semi - i - 1);
      if (entity == "amp") out += '&';
      else if (entity == "lt") out += '<';
      else if (entity == "gt") out += '>';
      else if (entity == "quot") out += '"';
      else if (entity == "apos") out += '\'';
      else if (!entity.empty() && entity[0] == '#') {
        int64_t code = 0;
        bool parsed =
            (entity.size() > 1 && (entity[1] == 'x' || entity[1] == 'X'))
                ? [&] {
                    code = std::strtoll(std::string(entity.substr(2)).c_str(),
                                        nullptr, 16);
                    return true;
                  }()
                : ParseInt64(entity.substr(1), &code);
        if (!parsed || code <= 0 || code > 0x10FFFF) {
          return Error("bad character reference &" + std::string(entity) + ";");
        }
        // Encode as UTF-8.
        uint32_t cp = static_cast<uint32_t>(code);
        if (cp < 0x80) {
          out += static_cast<char>(cp);
        } else if (cp < 0x800) {
          out += static_cast<char>(0xC0 | (cp >> 6));
          out += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
          out += static_cast<char>(0xE0 | (cp >> 12));
          out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
          out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
          out += static_cast<char>(0xF0 | (cp >> 18));
          out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
          out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
          out += static_cast<char>(0x80 | (cp & 0x3F));
        }
      } else {
        return Error("unknown entity &" + std::string(entity) + ";");
      }
      i = semi + 1;
    }
    return out;
  }

  Result<std::unique_ptr<Node>> ParseElement(int depth) {
    if (depth > kMaxNestingDepth) {
      return Error("elements nested deeper than " +
                   std::to_string(kMaxNestingDepth) + " levels");
    }
    if (!Match("<")) return Error("expected '<'");
    GRIDDB_ASSIGN_OR_RETURN(std::string name, ParseName());
    auto node = std::make_unique<Node>(name);

    // Attributes.
    while (true) {
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated start tag <" + name);
      if (Match("/>")) return node;
      if (Match(">")) break;
      GRIDDB_ASSIGN_OR_RETURN(std::string attr_name, ParseName());
      SkipWhitespace();
      if (!Match("=")) return Error("expected '=' after attribute name");
      SkipWhitespace();
      if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
        return Error("expected quoted attribute value");
      }
      char quote = Peek();
      ++pos_;
      size_t start = pos_;
      while (!AtEnd() && Peek() != quote) ++pos_;
      if (AtEnd()) return Error("unterminated attribute value");
      GRIDDB_ASSIGN_OR_RETURN(
          std::string value, DecodeEntities(input_.substr(start, pos_ - start)));
      ++pos_;  // closing quote
      node->attributes[attr_name] = std::move(value);
    }

    // Content: text, children, comments, CDATA.
    std::string text;
    while (true) {
      if (AtEnd()) return Error("unterminated element <" + name + ">");
      if (Match("<![CDATA[")) {
        size_t end = input_.find("]]>", pos_);
        if (end == std::string_view::npos) return Error("unterminated CDATA");
        text.append(input_.substr(pos_, end - pos_));
        pos_ = end + 3;
        continue;
      }
      if (SkipComment()) continue;
      if (input_.substr(pos_, 2) == "</") {
        pos_ += 2;
        GRIDDB_ASSIGN_OR_RETURN(std::string close_name, ParseName());
        if (close_name != name) {
          return Error("mismatched close tag </" + close_name +
                       "> for <" + name + ">");
        }
        SkipWhitespace();
        if (!Match(">")) return Error("expected '>' in close tag");
        node->text = std::string(Trim(text));
        return node;
      }
      if (Peek() == '<') {
        GRIDDB_ASSIGN_OR_RETURN(std::unique_ptr<Node> child,
                                ParseElement(depth + 1));
        node->children.push_back(std::move(child));
        continue;
      }
      size_t start = pos_;
      while (!AtEnd() && Peek() != '<') ++pos_;
      GRIDDB_ASSIGN_OR_RETURN(
          std::string decoded, DecodeEntities(input_.substr(start, pos_ - start)));
      text += decoded;
    }
  }

  std::string_view input_;
  size_t pos_ = 0;
};

void WriteNode(const Node& node, const WriteOptions& options, int depth,
               std::string& out) {
  std::string indent =
      options.pretty ? std::string(static_cast<size_t>(depth) *
                                       static_cast<size_t>(options.indent_width),
                                   ' ')
                     : std::string();
  out += indent;
  out += '<';
  out += node.name;
  for (const auto& [key, value] : node.attributes) {
    out += ' ';
    out += key;
    out += "=\"";
    out += Escape(value);
    out += '"';
  }
  if (node.children.empty() && node.text.empty()) {
    out += "/>";
    if (options.pretty) out += '\n';
    return;
  }
  out += '>';
  if (node.children.empty()) {
    out += Escape(node.text);
  } else {
    if (options.pretty) out += '\n';
    if (!node.text.empty()) {
      out += indent;
      out += Escape(node.text);
      if (options.pretty) out += '\n';
    }
    for (const auto& child : node.children) {
      WriteNode(*child, options, depth + 1, out);
    }
    out += indent;
  }
  out += "</";
  out += node.name;
  out += '>';
  if (options.pretty) out += '\n';
}

}  // namespace

Result<std::unique_ptr<Node>> Parse(std::string_view input) {
  Parser parser(input);
  return parser.ParseDocument();
}

std::string Write(const Node& root, const WriteOptions& options) {
  std::string out;
  if (options.declaration) out += "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  WriteNode(root, options, 0, out);
  return out;
}

}  // namespace griddb::xml
