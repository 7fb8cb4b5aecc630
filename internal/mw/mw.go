// Package mw names the compute hosts of the offloading testbed. The
// paper's §VII Switcher carries messages between them over UDP; here the
// mission engine models those hops in virtual time inside its control
// tick (internal/core over internal/netsim).
package mw

// HostID identifies a compute host ("lgv", "edge", "cloud").
type HostID string
