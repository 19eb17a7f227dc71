package fault

import (
	"fmt"
	"strconv"
	"strings"
)

// Encode renders the plan in its canonical text form:
//
//	plan name=<name> scope=<scope>
//	inj kind=<kind> class=<class> gap=<ns> min=<ns> max=<ns> alpha=<g>
//	...
//
// Durations are integer nanoseconds and alpha uses Go's shortest
// round-tripping float format, so two valid plans share an encoding exactly
// when they share every field. Sig hashes it into job and cache keys.
func (p *Plan) Encode() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan name=%s scope=%s\n", p.Name, p.Scope)
	for _, inj := range p.Injectors {
		fmt.Fprintf(&sb, "inj kind=%s class=%s gap=%d min=%d max=%d alpha=%s\n",
			inj.Kind, inj.Class, int64(inj.Gap), int64(inj.MinDur), int64(inj.MaxDur),
			strconv.FormatFloat(inj.Alpha, 'g', -1, 64))
	}
	return sb.String()
}
