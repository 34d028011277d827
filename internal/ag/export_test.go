package ag

import "opentla/internal/ts"

// LHSSystem exposes lhsSystem to the external tests of this package.
func (th *Theorem) LHSSystem(withEnv, safetyOnly bool) *ts.System {
	return th.lhsSystem(th.Name+"/lhs", withEnv, safetyOnly)
}
