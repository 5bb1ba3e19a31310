// Structure-aware libFuzzer harness over every wire codec.
//
// The first input byte selects the codec; the remainder is the frame body.
// This keeps one harness (and one corpus) covering the full deserializer
// surface while letting the mutator stay within a single codec's grammar —
// a seed's selector byte survives mutation far more often than its body, so
// coverage-guided runs explore each format deeply instead of bouncing
// between them.
//
// Every dispatch applies the same acceptance rule the protocol handlers
// use: parse, then expect_done(). The harness asserts nothing about the
// result — any input must simply decode or reject without crashing,
// overflowing, or tripping ASan/UBSan.
#include <cstddef>
#include <cstdint>

#include "chord/tchord.hpp"
#include "common/serialize.hpp"
#include "crypto/onion.hpp"
#include "crypto/rsa.hpp"
#include "nylon/pss.hpp"
#include "ppss/group.hpp"
#include "ppss/ppss.hpp"
#include "wcl/wcl.hpp"

namespace {

using whisper::BytesView;
using whisper::DecodeError;
using whisper::Reader;

// Mirrors the protocol call sites: decode one frame, then require the input
// to be fully consumed (trailing bytes are a reject, not a tolerated tail).
template <typename Decode>
void framed(BytesView body, Decode decode) {
  Reader r(body);
  decode(r);
  (void)r.expect_done();
  (void)r.reject_reason();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (size == 0) return 0;
  const BytesView body(data + 1, size - 1);
  switch (data[0] % 9) {
    case 0:
      framed(body, [](Reader& r) { (void)whisper::pss::ContactCard::deserialize(r); });
      break;
    case 1:
      framed(body, [](Reader& r) { (void)whisper::nylon::PssEntry::deserialize(r); });
      break;
    case 2:
      framed(body, [](Reader& r) {
        if (!whisper::ppss::PrivateEntry::deserialize(r)) r.fail(DecodeError::kBadValue);
      });
      break;
    case 3:
      framed(body, [](Reader& r) {
        if (!whisper::wcl::RemotePeer::deserialize(r)) r.fail(DecodeError::kBadValue);
      });
      break;
    case 4:
      framed(body, [](Reader& r) {
        if (!whisper::chord::ChordDescriptor::deserialize(r)) r.fail(DecodeError::kBadValue);
      });
      break;
    case 5:
      framed(body, [](Reader& r) {
        if (!whisper::ppss::Passport::deserialize(r)) r.fail(DecodeError::kBadValue);
      });
      break;
    case 6:
      framed(body, [](Reader& r) {
        if (!whisper::ppss::Accreditation::deserialize(r)) r.fail(DecodeError::kBadValue);
      });
      break;
    case 7:
      (void)whisper::crypto::RsaPublicKey::deserialize(body);
      break;
    case 8:
      (void)whisper::crypto::OnionPacket::deserialize(body);
      break;
  }
  return 0;
}
