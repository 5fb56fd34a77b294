package analytics

// SetTemplateFolds switches the text folds' template path for a test and
// returns the switch that restores it.
func SetTemplateFolds(on bool) (restore func()) {
	was := templateFolds
	templateFolds = on
	return func() { templateFolds = was }
}
