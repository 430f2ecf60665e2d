package fixture

import "testing"

func TestPresent(t *testing.T) {}

func FuzzPresent(f *testing.F) {}
