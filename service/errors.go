package service

import (
	"context"
	"errors"

	proxrank "repro"
	"repro/api"
)

// asAPIError coerces any error into an api.Error, classifying context
// cancellation, deadline expiry, and capped (DNF) runs along the way.
func asAPIError(err error) *api.Error {
	var ae *api.Error
	if errors.As(err, &ae) {
		return ae
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return api.Errorf(api.CodeTimeout, "%v", err)
	case errors.Is(err, context.Canceled):
		return api.Errorf(api.CodeCanceled, "%v", err)
	case errors.Is(err, proxrank.ErrDNF):
		return api.Errorf(api.CodeDNF, "%v", err)
	default:
		return api.Errorf(api.CodeInternal, "%v", err)
	}
}
