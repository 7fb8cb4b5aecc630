// Package mw is the real-socket middleware of the §VII switcher: host
// identities and a UDP endpoint that carries wire frames between the
// LGV and a remote worker with the paper's one-length-queue freshness
// policy.
//
// Missions model the same hops in virtual time inside the engine's
// control tick (internal/core over internal/netsim); only the
// real-socket Switcher/Worker pair uses the endpoint.
package mw

// HostID identifies a compute host ("lgv", "edge", "cloud").
type HostID string
