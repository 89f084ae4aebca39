package a

import (
	"context"

	"example.com/internal/netproto"
)

func roundTrips(ctx context.Context, addr string) {
	netproto.Call(addr, nil, 0)                 // want `ctxcheck: netproto\.Call drops the caller's context`
	_, _ = netproto.Dial(addr, 0)               // want `ctxcheck: netproto\.Dial drops the caller's context`
	_ = netproto.CallContext(ctx, addr, nil, 0) // threading ctx is the fix
}
