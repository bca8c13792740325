package trace

import "testing"

// Invalid configs must surface the config validation error.
func TestGenerateAllInvalidConfigErrors(t *testing.T) {
	if _, _, err := GenerateAll(Config{Duration: -5, Lambda: 100}); err == nil {
		t.Fatal("invalid config should return an error")
	}
}
