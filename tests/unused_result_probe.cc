// Compiled by unused_result_probe.cmake once per case, never linked. Each
// bare discard of a Status or Result must fail to compile under the build's
// compile options, and the explicit `(void)` discards must compile.
#include "common/status.h"

namespace delprop {

Status Make();
Result<int> MakeInt();
struct Owner {
  Status Do();
};

void Probe([[maybe_unused]] Owner& o) {
#if defined(BARE_STATUS)
  Make();
#elif defined(BARE_RESULT)
  MakeInt();
#elif defined(BARE_MEMBER)
  o.Do();
#else
  (void)Make();
  (void)MakeInt();
  (void)o.Do();
#endif
}

}  // namespace delprop
