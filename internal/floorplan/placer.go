package floorplan

import "repro/internal/device"

// Placer places PRRs on one fabric. Reserved regions (typically the static
// region's floorplan) are never overlapped.
type Placer struct {
	Fabric   *device.Fabric
	Reserved []Region
}

// NewPlacer returns a placer for the fabric with optional reserved regions.
func NewPlacer(f *device.Fabric, reserved ...Region) *Placer {
	return &Placer{Fabric: f, Reserved: reserved}
}
