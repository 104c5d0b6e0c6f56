// Minimal XML document model, parser and writer.
//
// Used for XSpec schema-specification files (paper §4.4). XML-RPC
// messages (paper §4.5) have their own one-pass reader and writer in
// rpc/xmlrpc_value.cc and never build this tree. Supports elements,
// attributes, character data, comments and the standard five entities.
// It does not support DTDs, namespaces or processing instructions beyond
// the XML declaration, which is skipped; XSpec uses none of those.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "griddb/util/status.h"

namespace griddb::xml {

/// An XML element. Character data is normalized into `text` (concatenation
/// of all text nodes directly under this element, entity-decoded).
class Node {
 public:
  std::string name;
  std::map<std::string, std::string> attributes;
  std::string text;
  std::vector<std::unique_ptr<Node>> children;

  Node() = default;
  explicit Node(std::string element_name) : name(std::move(element_name)) {}

  /// First direct child with the given element name, or nullptr.
  const Node* Child(std::string_view child_name) const;
  Node* Child(std::string_view child_name);

  /// All direct children with the given element name.
  std::vector<const Node*> Children(std::string_view child_name) const;

  /// Attribute value or empty string when absent.
  std::string Attribute(std::string_view key) const;
  bool HasAttribute(std::string_view key) const;

  /// Text content of a direct child, or `fallback` when the child is absent.
  std::string ChildText(std::string_view child_name,
                        std::string_view fallback = "") const;

  /// Appends a new child element and returns a reference to it.
  Node& AddChild(std::string child_name);
  /// Appends a child carrying only text content.
  Node& AddTextChild(std::string child_name, std::string content);

  /// Deep copy.
  std::unique_ptr<Node> Clone() const;
};

/// Parses a complete XML document; returns its root element.
/// Leading XML declarations, comments and whitespace are skipped.
/// Elements nested deeper than kMaxNestingDepth (util/limits.h) are a
/// ParseError rather than unbounded recursion.
Result<std::unique_ptr<Node>> Parse(std::string_view input);

struct WriteOptions {
  bool pretty = true;        ///< Indent children, one element per line.
  int indent_width = 2;
  bool declaration = true;   ///< Emit <?xml version="1.0"?> header.
};

/// Serializes the tree rooted at `root`. Inverse of Parse for trees where
/// no element mixes text with child elements.
std::string Write(const Node& root, const WriteOptions& options = {});

/// Escapes &, <, >, ", ' for use in attribute values / character data.
std::string Escape(std::string_view raw);

}  // namespace griddb::xml
