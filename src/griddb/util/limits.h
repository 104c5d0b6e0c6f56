// Bounds shared by the decoders of untrusted input.
#pragma once

namespace griddb {

/// Deepest element or value nesting that any decoder of untrusted bytes
/// (XML-RPC text, the binary wire codec, XSpec XML) recurses into. Each
/// level costs a native stack frame, so without a cap a few hundred KB
/// of nested arrays overflow the stack, and XML-RPC requests are decoded
/// before the session check. Real payloads nest a handful of levels.
inline constexpr int kMaxNestingDepth = 512;

}  // namespace griddb
