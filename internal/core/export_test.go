package core

// Test-only exports for the external core_test package, which can import
// internal/wgen (wgen imports core, so package core's own tests cannot).

var (
	StageAccess = stageAccess
	TimeWrite   = timeWrite
)

const NumAccessClasses = numAccessClasses
